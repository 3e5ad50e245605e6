// Package hotsync implements the initial- and final-state transfer of
// §2.2/§3: the desktop-side capture of a device's databases (the role the
// HotSync + ROMTransfer.prc pair played for the paper) and their
// restoration into a fresh machine before playback. The processor state is
// not captured: as in the paper, every session starts directly after a
// soft reset, whose deterministic effects the boot sequence reproduces.
package hotsync

import (
	"encoding/binary"
	"fmt"

	"palmsim/internal/emu"
	"palmsim/internal/pdb"
	"palmsim/internal/simerr"
)

// State is the transferred device state: the RTC base and every database
// (applications and data share the database format on Palm OS).
type State struct {
	RTCBase   uint32
	Databases []*pdb.Database
}

// Backup captures the machine's databases, as a HotSync with all backup
// bits set would (§2.2).
func Backup(m *emu.Machine) (*State, error) {
	dbs, err := m.Store.ExportAll()
	if err != nil {
		return nil, err
	}
	return &State{RTCBase: m.HW.RTCBase(), Databases: dbs}, nil
}

// Restore imports the state into a machine. Matching the paper's §3.4
// observation, imported databases read back with zeroed creation, backup
// and modification dates until replay itself modifies them.
func Restore(m *emu.Machine, st *State) error {
	m.HW.SetRTCBase(st.RTCBase)
	for _, db := range st.Databases {
		if _, err := m.Store.Import(db); err != nil {
			return fmt.Errorf("hotsync: importing %q: %w", db.Name, err)
		}
	}
	return nil
}

// Find returns the named database in the state.
func (st *State) Find(name string) (*pdb.Database, bool) {
	for _, db := range st.Databases {
		if db.Name == name {
			return db, true
		}
	}
	return nil, false
}

var magic = [8]byte{'P', 'A', 'L', 'M', 'S', 'T', 'A', 'T'}

// Marshal serializes the state: magic, RTC base, count, then each database
// as a length-prefixed PDB image.
func (st *State) Marshal() []byte {
	out := append([]byte(nil), magic[:]...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], st.RTCBase)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(st.Databases)))
	out = append(out, hdr[:]...)
	for _, db := range st.Databases {
		img := db.Serialize()
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(img)))
		out = append(out, n[:]...)
		out = append(out, img...)
	}
	return out
}

// Unmarshal parses a serialized state. A malformed state — short header,
// bad magic, a truncated or corrupt database, bytes after the last
// database — fails with simerr.ErrCorruptState.
func Unmarshal(data []byte) (*State, error) {
	corrupt := func(format string, args ...any) error {
		return simerr.New(simerr.ErrCorruptState, "hotsync: unmarshal", fmt.Errorf(format, args...))
	}
	if len(data) < 16 {
		return nil, corrupt("truncated header")
	}
	for i, c := range magic {
		if data[i] != c {
			return nil, corrupt("bad magic")
		}
	}
	st := &State{RTCBase: binary.BigEndian.Uint32(data[8:])}
	n := int(binary.BigEndian.Uint32(data[12:]))
	off := 16
	for i := 0; i < n; i++ {
		if len(data)-off < 4 {
			return nil, corrupt("truncated at database %d", i)
		}
		size := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if size > len(data)-off {
			return nil, corrupt("database %d overruns buffer", i)
		}
		db, err := pdb.Parse(data[off : off+size])
		if err != nil {
			return nil, corrupt("database %d: %w", i, err)
		}
		st.Databases = append(st.Databases, db)
		off += size
	}
	if off != len(data) {
		return nil, corrupt("%d bytes after the last of %d databases", len(data)-off, n)
	}
	return st, nil
}
