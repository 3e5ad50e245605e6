// Package pdb implements the Palm OS database wire format (PDB) used for
// HotSync-style transfer between the simulated handheld and the desktop
// side, plus the field-by-field comparison the paper's final-state
// correlation (§3.4) performs.
//
// A Palm database is a 78-byte header (name, attributes, the three date
// fields, type/creator codes), a record index, and the record payloads. On
// a device, applications are stored in the same format with code resources
// as records; this package treats both uniformly.
package pdb

import (
	"encoding/binary"
	"fmt"
	"strings"

	"palmsim/internal/simerr"
)

// Header attribute bits (subset of Palm OS dmHdrAttr*).
const (
	AttrResDB          = 0x0001
	AttrReadOnly       = 0x0002
	AttrDirty          = 0x0004
	AttrBackup         = 0x0008 // "set the backup bit" — §2.2 initial state
	AttrOKToInstall    = 0x0040
	AttrResetAfterInst = 0x0020
)

// NameLen is the fixed on-disk length of a database name.
const NameLen = 32

// headerLen is the fixed PDB header size; each index entry adds 8 bytes.
const headerLen = 78

// Record is one database record.
type Record struct {
	Attr     uint8
	UniqueID uint32 // 24 bits significant
	Data     []byte
}

// Database is an in-memory Palm database.
type Database struct {
	Name             string
	Attributes       uint16
	Version          uint16
	CreationDate     uint32 // seconds since 1904-01-01 (zero = "imported")
	ModificationDate uint32
	LastBackupDate   uint32
	ModNumber        uint32
	Type             uint32 // four-character code
	Creator          uint32 // four-character code
	UniqueIDSeed     uint32
	Records          []Record
}

// FourCC packs a four-character code.
func FourCC(s string) uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		var c byte = ' '
		if i < len(s) {
			c = s[i]
		}
		v = v<<8 | uint32(c)
	}
	return v
}

// FourCCString unpacks a four-character code.
func FourCCString(v uint32) string {
	return string([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Serialize encodes the database in PDB wire format.
func (db *Database) Serialize() []byte {
	n := len(db.Records)
	size := headerLen + 8*n + 2 // +2 for the traditional gap word
	for _, r := range db.Records {
		size += len(r.Data)
	}
	out := make([]byte, size)

	copy(out[0:NameLen], db.Name)
	be16 := binary.BigEndian.PutUint16
	be32 := binary.BigEndian.PutUint32
	be16(out[32:], db.Attributes)
	be16(out[34:], db.Version)
	be32(out[36:], db.CreationDate)
	be32(out[40:], db.ModificationDate)
	be32(out[44:], db.LastBackupDate)
	be32(out[48:], db.ModNumber)
	be32(out[52:], 0) // appInfoID
	be32(out[56:], 0) // sortInfoID
	be32(out[60:], db.Type)
	be32(out[64:], db.Creator)
	be32(out[68:], db.UniqueIDSeed)
	be32(out[72:], 0) // nextRecordListID
	be16(out[76:], uint16(n))

	dataOff := headerLen + 8*n + 2
	for i, r := range db.Records {
		entry := out[headerLen+8*i:]
		be32(entry, uint32(dataOff))
		entry[4] = r.Attr
		entry[5] = byte(r.UniqueID >> 16)
		entry[6] = byte(r.UniqueID >> 8)
		entry[7] = byte(r.UniqueID)
		copy(out[dataOff:], r.Data)
		dataOff += len(r.Data)
	}
	return out
}

// Parse decodes a PDB image. A malformed image — shorter than its header
// or record index, or a record outside the payload area — fails with
// simerr.ErrCorruptState.
func Parse(data []byte) (*Database, error) {
	corrupt := func(format string, args ...any) error {
		return simerr.New(simerr.ErrCorruptState, "pdb: parse", fmt.Errorf(format, args...))
	}
	if len(data) < headerLen {
		return nil, corrupt("image shorter than header")
	}
	be16 := binary.BigEndian.Uint16
	be32 := binary.BigEndian.Uint32
	db := &Database{
		Name:             strings.TrimRight(string(data[0:NameLen]), "\x00"),
		Attributes:       be16(data[32:]),
		Version:          be16(data[34:]),
		CreationDate:     be32(data[36:]),
		ModificationDate: be32(data[40:]),
		LastBackupDate:   be32(data[44:]),
		ModNumber:        be32(data[48:]),
		Type:             be32(data[60:]),
		Creator:          be32(data[64:]),
		UniqueIDSeed:     be32(data[68:]),
	}
	n := int(be16(data[76:]))
	indexEnd := headerLen + 8*n
	if len(data) < indexEnd {
		return nil, corrupt("truncated record index (%d records)", n)
	}
	offsets := make([]uint32, n+1)
	attrs := make([]uint8, n)
	ids := make([]uint32, n)
	for i := 0; i < n; i++ {
		entry := data[headerLen+8*i:]
		offsets[i] = be32(entry)
		attrs[i] = entry[4]
		ids[i] = uint32(entry[5])<<16 | uint32(entry[6])<<8 | uint32(entry[7])
	}
	offsets[n] = uint32(len(data))
	for i := 0; i < n; i++ {
		// A record starting inside the header or the index would decode
		// those bytes as its payload.
		if offsets[i] < uint32(indexEnd) || offsets[i] > offsets[i+1] || int(offsets[i+1]) > len(data) {
			return nil, corrupt("record %d has invalid bounds [%d,%d)", i, offsets[i], offsets[i+1])
		}
		db.Records = append(db.Records, Record{
			Attr:     attrs[i],
			UniqueID: ids[i],
			Data:     append([]byte(nil), data[offsets[i]:offsets[i+1]]...),
		})
	}
	return db, nil
}

// FieldDiff describes one differing header field or record byte range
// between two databases with the same name.
type FieldDiff struct {
	DB    string
	Field string // e.g. "CREATION DATE", "record 3"
	A, B  string
}

func (d FieldDiff) String() string {
	return fmt.Sprintf("%s: %s: %s != %s", d.DB, d.Field, d.A, d.B)
}

// DateFields lists the header fields the paper found to regularly differ
// between the handheld's final state and the emulated final state (§3.4).
var DateFields = map[string]bool{
	"CREATION DATE":     true,
	"MODIFICATION DATE": true,
	"LAST BACKUP DATE":  true,
}

// Compare performs the §3.4 field-by-field comparison and returns every
// difference. Callers classify the result: differences confined to
// DateFields (and to the psysLaunchDB database) are the expected artifact
// of importing/exporting databases rather than replay divergence.
func Compare(a, b *Database) []FieldDiff {
	var diffs []FieldDiff
	name := a.Name
	field := func(f string, av, bv any) {
		if fmt.Sprint(av) != fmt.Sprint(bv) {
			diffs = append(diffs, FieldDiff{DB: name, Field: f, A: fmt.Sprint(av), B: fmt.Sprint(bv)})
		}
	}
	field("NAME", a.Name, b.Name)
	field("ATTRIBUTES", a.Attributes&^AttrDirty, b.Attributes&^AttrDirty)
	field("VERSION", a.Version, b.Version)
	field("CREATION DATE", a.CreationDate, b.CreationDate)
	field("MODIFICATION DATE", a.ModificationDate, b.ModificationDate)
	field("LAST BACKUP DATE", a.LastBackupDate, b.LastBackupDate)
	field("TYPE", FourCCString(a.Type), FourCCString(b.Type))
	field("CREATOR", FourCCString(a.Creator), FourCCString(b.Creator))
	field("NUM RECORDS", len(a.Records), len(b.Records))
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		ra, rb := a.Records[i], b.Records[i]
		if !bytesEqual(ra.Data, rb.Data) {
			diffs = append(diffs, FieldDiff{
				DB:    name,
				Field: fmt.Sprintf("record %d", i),
				A:     fmt.Sprintf("% x", clip(ra.Data)),
				B:     fmt.Sprintf("% x", clip(rb.Data)),
			})
		}
	}
	return diffs
}

// OnlyExpected reports whether every difference is one the paper's
// validation attributes to the import/export procedure: the three date
// fields on any database, or any field of psysLaunchDB.
func OnlyExpected(diffs []FieldDiff) bool {
	for _, d := range diffs {
		if d.DB == "psysLaunchDB" {
			continue
		}
		if DateFields[d.Field] {
			continue
		}
		return false
	}
	return true
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clip(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}
