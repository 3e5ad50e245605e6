package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestFieldCodec round-trips a field list holding every supported field
// type, a nested Stateful included, and requires every truncated,
// overlong or mis-framed blob and every unsupported field type to be
// rejected.
func TestFieldCodec(t *testing.T) {
	newNested := func() *Cache {
		c, err := New(Config{SizeBytes: 256, LineBytes: 16, Ways: 2, Policy: PLRU, Write: WriteBack})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	nested := newNested()
	nested.AccessAllKinded(randKinded(500, 3))
	res := Result{Accesses: 1, Misses: 2, RAMRefs: 3, FlashRefs: 4, RAMMisses: 5, FlashMisses: 6, Writes: 7, Writebacks: 8}
	u32, i32, u64 := uint32(0xdeadbeef), int32(-2), uint64(1<<40+9)
	blob := AppendFields(nil, &res, &u32, &i32, &u64,
		[]uint32{1, 2}, []uint64{3}, []uint8{4, 5, 6}, []bool{true, false}, nested)
	nestedBlob := nested.AppendState(nil)
	if want := 64 + 4 + 4 + 8 + 8 + 8 + 3 + 2 + 4 + len(nestedBlob); len(blob) != want {
		t.Fatalf("blob is %d bytes, want %d", len(blob), want)
	}

	var gotRes Result
	var gotU32 uint32
	var gotI32 int32
	var gotU64 uint64
	gotU32s, gotU64s, gotU8s, gotBools := make([]uint32, 2), make([]uint64, 1), make([]uint8, 3), make([]bool, 2)
	gotNested := newNested()
	into := []any{&gotRes, &gotU32, &gotI32, &gotU64, gotU32s, gotU64s, gotU8s, gotBools, gotNested}
	if err := RestoreFields(blob, into...); err != nil {
		t.Fatal(err)
	}
	if gotRes != res || gotU32 != u32 || gotI32 != i32 || gotU64 != u64 || !gotBools[0] || gotBools[1] ||
		gotNested.Result() != nested.Result() {
		t.Errorf("restored %+v %#x %d %d %v %+v", gotRes, gotU32, gotI32, gotU64, gotBools, gotNested.Result())
	}
	if again := AppendFields(nil, into...); !bytes.Equal(again, blob) {
		t.Error("re-encoding the restored fields differs from the original blob")
	}

	for n := range blob {
		if err := RestoreFields(blob[:n], into...); err == nil {
			t.Errorf("blob cut to %d of %d bytes accepted", n, len(blob))
		}
	}
	if err := RestoreFields(append(blob[:len(blob):len(blob)], 0), into...); err == nil {
		t.Error("trailing byte accepted")
	}
	overlong := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(overlong[len(blob)-len(nestedBlob)-4:], ^uint32(0))
	if err := RestoreFields(overlong, into...); err == nil {
		t.Error("nested length beyond the blob accepted")
	}

	for name, call := range map[string]func(){
		"AppendFields":  func() { AppendFields(nil, "not a field") },
		"RestoreFields": func() { _ = RestoreFields([]byte{0}, 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an unsupported field type", name)
				}
			}()
			call()
		}()
	}
}
