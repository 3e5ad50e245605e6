package alog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"palmsim/internal/alloctest"
	"palmsim/internal/hw"
	"palmsim/internal/palmos"
	"palmsim/internal/pdb"
	"palmsim/internal/simerr"
)

func sampleLog() *Log {
	l := &Log{}
	l.Append(Record{Tick: 100, RTC: 10, Trap: palmos.TrapEvtEnqueuePenPoint, A: 50, B: 60})
	l.Append(Record{Tick: 102, RTC: 10, Trap: palmos.TrapEvtEnqueuePenPoint, A: hw.PenUp, B: hw.PenUp})
	l.Append(Record{Tick: 120, RTC: 11, Trap: palmos.TrapEvtEnqueueKey, A: 'h', B: 1, C: 2})
	l.Append(Record{Tick: 130, RTC: 11, Trap: palmos.TrapKeyCurrentState, A: 0, B: 5})
	l.Append(Record{Tick: 140, RTC: 11, Trap: palmos.TrapSysRandom, A: 0x1234, B: 0x5678})
	l.Append(Record{Tick: 150, RTC: 12, Trap: palmos.TrapSysRandom, A: 0, B: 0}) // zero seed
	l.Append(Record{Tick: 400, RTC: 14, Trap: palmos.TrapSysNotifyBroadcast, A: 9})
	return l
}

func TestRecordEncodeDecode(t *testing.T) {
	r := Record{Tick: 0xDEADBEEF, RTC: 0x01020304, Trap: 5, A: 6, B: 7, C: 8}
	got, err := DecodeRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: %+v != %+v", got, r)
	}
	if _, err := DecodeRecord([]byte{1, 2, 3}); !errors.Is(err, simerr.ErrCorruptState) {
		t.Errorf("short record: err = %v, want ErrCorruptState", err)
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	l := sampleLog()
	data := l.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("length %d != %d", got.Len(), l.Len())
	}
	for i := range l.Records {
		if got.Records[i] != l.Records[i] {
			t.Errorf("record %d differs", i)
		}
	}
	// Corrupt inputs, each rejected with the typed error.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"nil", nil},
		{"bad version", []byte("PALMALOGxxxxxxxx")},
		{"bad magic", bad},
		{"truncated body", data[:20]},
		{"byte after the last record", append(append([]byte(nil), data...), 0xFF)},
	} {
		if _, err := Unmarshal(tc.data); !errors.Is(err, simerr.ErrCorruptState) {
			t.Errorf("%s: err = %v, want ErrCorruptState", tc.name, err)
		}
	}
}

func TestFromDatabase(t *testing.T) {
	l := sampleLog()
	db := &pdb.Database{Name: "ActivityLogDB"}
	for _, r := range l.Records {
		db.Records = append(db.Records, pdb.Record{Data: r.Encode()})
	}
	got, err := FromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("length %d", got.Len())
	}
	// A corrupt record fails loudly.
	db.Records = append(db.Records, pdb.Record{Data: []byte{1}})
	if _, err := FromDatabase(db); err == nil {
		t.Error("corrupt record accepted")
	}
}

func TestElapsed(t *testing.T) {
	l := sampleLog()
	if l.ElapsedTicks() != 300 {
		t.Errorf("elapsed = %d ticks, want 300", l.ElapsedTicks())
	}
	if (&Log{}).ElapsedTicks() != 0 {
		t.Error("empty log elapsed nonzero")
	}
	if s := l.ElapsedString(); s != "0:00:03" {
		t.Errorf("elapsed string = %q", s)
	}
}

func TestToReplaySplitsThreeGroups(t *testing.T) {
	r := sampleLog().ToReplay()

	// Synchronous: 2 pen + 1 key + 1 notify.
	if len(r.Synchronous) != 4 {
		t.Fatalf("synchronous = %d, want 4", len(r.Synchronous))
	}
	if r.Synchronous[0].Ev.Type != hw.EvPen || r.Synchronous[0].Ev.A != 50 {
		t.Error("pen event mangled")
	}
	if r.Synchronous[2].Ev.Type != hw.EvKey || r.Synchronous[2].Ev.A != 'h' {
		t.Error("key event mangled")
	}
	if r.Synchronous[3].Ev.Type != hw.EvNotify || r.Synchronous[3].Ev.A != 9 {
		t.Error("notify event mangled")
	}

	// KeyCurrentState queue.
	if len(r.KeyStates) != 1 || r.KeyStates[0].Bits != 5 || r.KeyStates[0].Tick != 130 {
		t.Errorf("key states = %+v", r.KeyStates)
	}

	// Seed queue excludes the zero seed (§2.4.2: "generated by non-zero
	// SysRandom calls").
	if len(r.Seeds) != 1 || r.Seeds[0] != 0x12345678 {
		t.Errorf("seeds = %#x", r.Seeds)
	}

	q := r.Queues()
	if bits, ok := q.KeyStateAt(131); !ok || bits != 5 {
		t.Error("queue lookup failed")
	}
	if _, ok := q.KeyStateAt(50); ok {
		t.Error("lookup before first sample should miss")
	}
	if s, ok := q.NextSeed(); !ok || s != 0x12345678 {
		t.Error("seed queue failed")
	}
	if _, ok := q.NextSeed(); ok {
		t.Error("seed queue not exhausted")
	}
}

// Property: marshal/unmarshal round trips arbitrary records in tick
// order, and rejects them out of order.
func TestLogRoundTripQuick(t *testing.T) {
	f := func(recs []Record) bool {
		if !slices.IsSortedFunc(recs, byTick) {
			if _, err := Unmarshal((&Log{Records: recs}).Marshal()); !errors.Is(err, simerr.ErrCorruptState) {
				return false
			}
			slices.SortStableFunc(recs, byTick)
		}
		l := &Log{Records: recs}
		got, err := Unmarshal(l.Marshal())
		if err != nil {
			return false
		}
		if got.Len() != len(recs) {
			return false
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Unmarshal may allocate at most allocPerByte·len(input) + allocFixed
// bytes. Valid logs cost up to 5.9 bytes per input byte (each 16-byte
// record becomes a 16-byte Record in a slice that grows by doubling); a
// hostile header costs under 200 bytes.
const (
	allocPerByte = 8
	allocFixed   = 1 << 10
)

// TestAlogHostileHeaders: Unmarshal rejects each hostile header as
// corrupt state, allocating in proportion to the input, never to what
// the header declares.
func TestAlogHostileHeaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^32-1 records in a 16-byte file",
			binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(fileMagic[:], 1), math.MaxUint32)},
		{"a tick that decreases at the last record", decreasingTickLog()},
	} {
		var err error
		alloc := alloctest.Allocated(func() { _, err = Unmarshal(tc.data) })
		if !errors.Is(err, simerr.ErrCorruptState) {
			t.Errorf("%s: err = %v, want ErrCorruptState", tc.name, err)
		}
		alloctest.CheckAllocs(t, tc.name, len(tc.data), alloc, allocPerByte, allocFixed)
	}
}

func byTick(a, b Record) int { return cmp.Compare(a.Tick, b.Tick) }

// decreasingTickLog is sampleLog marshaled with its last record's tick
// set below the one before it.
func decreasingTickLog() []byte {
	l := sampleLog()
	l.Records[len(l.Records)-1].Tick = l.Records[len(l.Records)-2].Tick - 1
	return l.Marshal()
}

// TestUnmarshalRejectsDecreasingTick: a record whose tick is below its
// predecessor's is corrupt state, and the error names the record.
func TestUnmarshalRejectsDecreasingTick(t *testing.T) {
	_, err := Unmarshal(decreasingTickLog())
	if !errors.Is(err, simerr.ErrCorruptState) || !strings.Contains(err.Error(), "record 6 at tick 149") {
		t.Errorf("err = %v, want ErrCorruptState naming record 6 at tick 149", err)
	}
	equal := sampleLog()
	equal.Records[1].Tick = equal.Records[0].Tick
	if _, err := Unmarshal(equal.Marshal()); err != nil {
		t.Errorf("equal ticks rejected: %v", err)
	}
}

// FuzzAlogUnmarshal feeds arbitrary bytes to Unmarshal: it must never
// panic or exceed the allocation bound, every rejection must be
// ErrCorruptState, and an accepted log must survive Marshal and Unmarshal
// unchanged.
func FuzzAlogUnmarshal(f *testing.F) {
	data := sampleLog().Marshal()
	f.Add(data)
	f.Add((&Log{}).Marshal())
	f.Add(data[:20])
	f.Add(data[:len(data)-1])
	f.Add(append(append([]byte(nil), data...), 0xFF))
	f.Add(decreasingTickLog())
	f.Fuzz(func(t *testing.T, data []byte) {
		var l *Log
		var err error
		alloc := alloctest.Allocated(func() { l, err = Unmarshal(data) })
		alloctest.CheckAllocs(t, "Unmarshal", len(data), alloc, allocPerByte, allocFixed)
		if err != nil {
			if !errors.Is(err, simerr.ErrCorruptState) {
				t.Fatalf("rejection is not ErrCorruptState: %v", err)
			}
			return
		}
		again, err := Unmarshal(l.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of an accepted log failed: %v", err)
		}
		if !reflect.DeepEqual(again, l) {
			t.Fatalf("round trip changed the log:\n got %+v\nwant %+v", again, l)
		}
	})
}
