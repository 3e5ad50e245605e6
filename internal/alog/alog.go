// Package alog implements the activity log: the record of external inputs
// (pen points, key events, KeyCurrentState bit fields, SysRandom seeds,
// SysNotifyBroadcast calls) that the five hacks write on the instrumented
// handheld (§2.3), its serialized file form, and the §2.4.2 parse that
// splits a log into the three replay groups — a synchronous event list
// replayed against the tick counter, a KeyCurrentState bit-field queue and
// a SysRandom seed queue.
package alog

import (
	"encoding/binary"
	"fmt"

	"palmsim/internal/hw"
	"palmsim/internal/palmos"
	"palmsim/internal/pdb"
	"palmsim/internal/simerr"
)

// Record is one logged input. Each record consumes sixteen bytes, matching
// §2.3.3's "individual records each consume twelve or sixteen bytes":
// tick (4), real-time clock (4), trap (2), and three data words.
type Record struct {
	Tick uint32
	RTC  uint32
	Trap uint16
	A    uint16
	B    uint16
	C    uint16
}

// RecordSize is the on-device size of a log record.
const RecordSize = 16

// Encode serializes the record into its 16-byte on-device form.
func (r Record) Encode() []byte {
	out := make([]byte, RecordSize)
	binary.BigEndian.PutUint32(out[0:], r.Tick)
	binary.BigEndian.PutUint32(out[4:], r.RTC)
	binary.BigEndian.PutUint16(out[8:], r.Trap)
	binary.BigEndian.PutUint16(out[10:], r.A)
	binary.BigEndian.PutUint16(out[12:], r.B)
	binary.BigEndian.PutUint16(out[14:], r.C)
	return out
}

// DecodeRecord parses a 16-byte on-device record. A shorter one fails
// with simerr.ErrCorruptState.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < RecordSize {
		return Record{}, simerr.New(simerr.ErrCorruptState, "alog: record",
			fmt.Errorf("%d bytes, want %d", len(b), RecordSize))
	}
	return Record{
		Tick: binary.BigEndian.Uint32(b[0:]),
		RTC:  binary.BigEndian.Uint32(b[4:]),
		Trap: binary.BigEndian.Uint16(b[8:]),
		A:    binary.BigEndian.Uint16(b[10:]),
		B:    binary.BigEndian.Uint16(b[12:]),
		C:    binary.BigEndian.Uint16(b[14:]),
	}, nil
}

// Log is a complete activity log for one session.
type Log struct {
	Records []Record
}

// Append adds a record.
func (l *Log) Append(r Record) { l.Records = append(l.Records, r) }

// Len returns the number of records ("Events" in Table 1).
func (l *Log) Len() int { return len(l.Records) }

// fileMagic identifies a serialized activity log.
var fileMagic = [8]byte{'P', 'A', 'L', 'M', 'A', 'L', 'O', 'G'}

// Marshal serializes the log (magic, version, count, records).
func (l *Log) Marshal() []byte {
	out := make([]byte, 0, 16+len(l.Records)*RecordSize)
	out = append(out, fileMagic[:]...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], 1) // version
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(l.Records)))
	out = append(out, hdr[:]...)
	for _, r := range l.Records {
		out = append(out, r.Encode()...)
	}
	return out
}

// Unmarshal parses a serialized activity log. A malformed log — short
// header, bad magic or version, a body shorter or longer than its record
// count, or a record whose tick is below the one before it (the device
// appends records as its traps run, so ticks never decrease) — fails
// with simerr.ErrCorruptState.
func Unmarshal(data []byte) (*Log, error) {
	corrupt := func(format string, args ...any) error {
		return simerr.New(simerr.ErrCorruptState, "alog: unmarshal", fmt.Errorf(format, args...))
	}
	if len(data) < 16 {
		return nil, corrupt("truncated header")
	}
	for i, c := range fileMagic {
		if data[i] != c {
			return nil, corrupt("bad magic")
		}
	}
	version := binary.BigEndian.Uint32(data[8:])
	if version != 1 {
		return nil, corrupt("unsupported version %d", version)
	}
	n := int(binary.BigEndian.Uint32(data[12:]))
	if body, want := uint64(len(data)-16), uint64(n)*RecordSize; body != want {
		return nil, corrupt("body of %d bytes, want %d for %d records", body, want, n)
	}
	l := &Log{}
	for i := 0; i < n; i++ {
		r, err := DecodeRecord(data[16+i*RecordSize:])
		if err != nil {
			return nil, err
		}
		if i > 0 && r.Tick < l.Records[i-1].Tick {
			return nil, corrupt("record %d at tick %d precedes record %d's tick %d", i, r.Tick, i-1, l.Records[i-1].Tick)
		}
		l.Append(r)
	}
	return l, nil
}

// FromDatabase decodes the on-device ActivityLogDB contents.
func FromDatabase(db *pdb.Database) (*Log, error) {
	l := &Log{}
	for i, rec := range db.Records {
		r, err := DecodeRecord(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("alog: record %d: %w", i, err)
		}
		l.Append(r)
	}
	return l, nil
}

// ElapsedTicks returns the tick span of the log.
func (l *Log) ElapsedTicks() uint32 {
	if len(l.Records) == 0 {
		return 0
	}
	return l.Records[len(l.Records)-1].Tick - l.Records[0].Tick
}

// ElapsedString formats the session length as HH:MM:SS, the Table 1 form.
func (l *Log) ElapsedString() string {
	secs := l.ElapsedTicks() / hw.TicksPerSec
	return fmt.Sprintf("%d:%02d:%02d", secs/3600, secs/60%60, secs%60)
}

// Replay is the §2.4.2 decomposition: "divides it into three groups — a
// list of events to be replayed synchronously with the tick counter and
// two queues. One queue is for KeyCurrentState key bit fields and the
// other is for random seeds (generated by non-zero SysRandom calls)."
type Replay struct {
	Synchronous []SyncEvent
	KeyStates   []palmos.KeyStateSample
	Seeds       []uint32

	// Battery holds logged SysBatteryInfo readings (the §5.1 future work).
	Battery []palmos.KeyStateSample
}

// SyncEvent is one input to inject at a tick.
type SyncEvent struct {
	Tick uint32
	Ev   hw.InputEvent
}

// ToReplay splits the log into its replay groups.
func (l *Log) ToReplay() *Replay {
	r := &Replay{}
	for _, rec := range l.Records {
		switch int(rec.Trap) {
		case palmos.TrapEvtEnqueuePenPoint:
			r.Synchronous = append(r.Synchronous, SyncEvent{
				Tick: rec.Tick,
				Ev:   hw.InputEvent{Type: hw.EvPen, A: rec.A, B: rec.B},
			})
		case palmos.TrapEvtEnqueueKey:
			r.Synchronous = append(r.Synchronous, SyncEvent{
				Tick: rec.Tick,
				Ev:   hw.InputEvent{Type: hw.EvKey, A: rec.A, B: rec.B, C: rec.C},
			})
		case palmos.TrapSysNotifyBroadcast:
			r.Synchronous = append(r.Synchronous, SyncEvent{
				Tick: rec.Tick,
				Ev:   hw.InputEvent{Type: hw.EvNotify, A: rec.A},
			})
		case palmos.TrapKeyCurrentState:
			r.KeyStates = append(r.KeyStates, palmos.KeyStateSample{
				Tick: rec.Tick,
				Bits: uint32(rec.A)<<16 | uint32(rec.B),
			})
		case palmos.TrapSysRandom:
			seed := uint32(rec.A)<<16 | uint32(rec.B)
			if seed != 0 {
				r.Seeds = append(r.Seeds, seed)
			}
		case palmos.TrapSrmEnqueue:
			r.Synchronous = append(r.Synchronous, SyncEvent{
				Tick: rec.Tick,
				Ev:   hw.InputEvent{Type: hw.EvSerial, A: rec.A},
			})
		case palmos.TrapSysBatteryInfo:
			r.Battery = append(r.Battery, palmos.KeyStateSample{
				Tick: rec.Tick,
				Bits: uint32(rec.A)<<16 | uint32(rec.B),
			})
		}
	}
	return r
}

// Queues converts the replay groups into the kernel's override queues.
func (r *Replay) Queues() *palmos.ReplayQueues {
	return &palmos.ReplayQueues{KeyStates: r.KeyStates, Seeds: r.Seeds, Battery: r.Battery}
}
