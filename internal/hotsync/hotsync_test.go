package hotsync

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"palmsim/internal/alloctest"
	"palmsim/internal/emu"
	"palmsim/internal/palmos"
	"palmsim/internal/pdb"
	"palmsim/internal/simerr"
)

func booted(t *testing.T) *emu.Machine {
	t.Helper()
	m, err := emu.New(emu.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBackupCapturesSystemDatabases(t *testing.T) {
	m := booted(t)
	st, err := Backup(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{palmos.LaunchDB, palmos.MemoDB, palmos.AddressDB} {
		if _, ok := st.Find(name); !ok {
			t.Errorf("backup missing %q", name)
		}
	}
	if st.RTCBase == 0 {
		t.Error("RTC base not captured")
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	src := booted(t)
	// Put a recognizable record in MemoDB.
	db, _ := src.Store.Lookup(palmos.MemoDB)
	idx, _, err := db.NewRecord(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(idx, 0, []byte("mark!")); err != nil {
		t.Fatal(err)
	}
	st, err := Backup(src)
	if err != nil {
		t.Fatal(err)
	}

	dst := booted(t)
	if err := Restore(dst, st); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Store.Lookup(palmos.MemoDB)
	if !ok || got.NumRecords() != 1 {
		t.Fatal("restored MemoDB missing the record")
	}
	addr, _, _ := got.RecordAddr(0)
	if string(dst.Bus.PeekBytes(addr, 5)) != "mark!" {
		t.Error("record content lost across restore")
	}
	// Imported databases read back with zeroed dates (§3.4).
	if got.CreationDate != 0 {
		t.Error("restored database should have zero creation date")
	}
	if dst.HW.RTCBase() != st.RTCBase {
		t.Error("RTC base not restored")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	st := &State{
		RTCBase: 777,
		Databases: []*pdb.Database{
			{Name: "A", Type: pdb.FourCC("data"), Records: []pdb.Record{{Data: []byte("one")}}},
			{Name: "B", CreationDate: 42},
		},
	}
	got, err := Unmarshal(st.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.RTCBase != 777 || len(got.Databases) != 2 {
		t.Fatalf("header lost: %+v", got)
	}
	a, ok := got.Find("A")
	if !ok || string(a.Records[0].Data) != "one" {
		t.Error("database A lost")
	}
	if b, _ := got.Find("B"); b.CreationDate != 42 {
		t.Error("database B lost")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	// A truncated database section, bytes after the last database and a
	// database too short for its own header.
	st := &State{RTCBase: 1, Databases: []*pdb.Database{{Name: "X"}}}
	blob := st.Marshal()
	shortDB := append([]byte(nil), blob[:16]...)
	shortDB = append(shortDB, 0, 0, 0, 2, 'x', 'y')
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC00000000"),
		blob[:len(blob)-4],
		append(append([]byte(nil), blob...), 1, 2, 3),
		shortDB,
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); !errors.Is(err, simerr.ErrCorruptState) {
			t.Errorf("case %d: err = %v, want ErrCorruptState", i, err)
		}
	}
}

// Unmarshal may allocate at most allocPerByte·len(input) + allocFixed
// bytes: pdb.Parse's bound, since one database of 65,535 empty records
// costs up to 24.9 bytes per input byte. States of many small databases
// cost under 6; hostile headers cost under 200 bytes.
const (
	allocPerByte = 32
	allocFixed   = 1 << 10
)

// TestHotsyncHostileHeaders: Unmarshal rejects each hostile header as
// corrupt state, allocating in proportion to the input, never to what
// the header declares.
func TestHotsyncHostileHeaders(t *testing.T) {
	header := binary.BigEndian.AppendUint32(magic[:], 777) // RTC base
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^32-1 databases", binary.BigEndian.AppendUint32(bytes.Clone(header), math.MaxUint32)},
		{"database length of 2^32-1",
			binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(bytes.Clone(header), 1), math.MaxUint32)},
	} {
		var err error
		alloc := alloctest.Allocated(func() { _, err = Unmarshal(tc.data) })
		if !errors.Is(err, simerr.ErrCorruptState) {
			t.Errorf("%s: err = %v, want ErrCorruptState", tc.name, err)
		}
		alloctest.CheckAllocs(t, tc.name, len(tc.data), alloc, allocPerByte, allocFixed)
	}
}

// FuzzHotsyncUnmarshal feeds arbitrary bytes to Unmarshal: it must never
// panic or exceed the allocation bound, every rejection must be
// ErrCorruptState, and an accepted state must survive Marshal and
// Unmarshal unchanged.
func FuzzHotsyncUnmarshal(f *testing.F) {
	st := &State{
		RTCBase: 777,
		Databases: []*pdb.Database{
			{Name: "A", Type: pdb.FourCC("data"), Records: []pdb.Record{{Attr: 0x40, UniqueID: 5, Data: []byte("one")}}},
			{Name: "B", CreationDate: 42},
		},
	}
	data := st.Marshal()
	f.Add(data)
	f.Add((&State{}).Marshal())
	f.Add(data[:20])
	f.Add(data[:len(data)-1])
	f.Add(append(append([]byte(nil), data...), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st *State
		var err error
		alloc := alloctest.Allocated(func() { st, err = Unmarshal(data) })
		alloctest.CheckAllocs(t, "Unmarshal", len(data), alloc, allocPerByte, allocFixed)
		if err != nil {
			if !errors.Is(err, simerr.ErrCorruptState) {
				t.Fatalf("rejection is not ErrCorruptState: %v", err)
			}
			return
		}
		again, err := Unmarshal(st.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of an accepted state failed: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("round trip changed the state:\n got %+v\nwant %+v", again, st)
		}
	})
}
