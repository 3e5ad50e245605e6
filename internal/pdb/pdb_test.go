package pdb

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"palmsim/internal/alloctest"
	"palmsim/internal/simerr"
)

func sample() *Database {
	return &Database{
		Name:             "TestDB",
		Attributes:       AttrBackup,
		Version:          2,
		CreationDate:     1000,
		ModificationDate: 2000,
		LastBackupDate:   1500,
		ModNumber:        7,
		Type:             FourCC("data"),
		Creator:          FourCC("test"),
		UniqueIDSeed:     0x100005,
		Records: []Record{
			{Attr: 0x40, UniqueID: 0x000001, Data: []byte("first record")},
			{Attr: 0x00, UniqueID: 0x000002, Data: []byte{}},
			{Attr: 0x00, UniqueID: 0x000003, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}},
		},
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	db := sample()
	img := db.Serialize()
	got, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != db.Name || got.Attributes != db.Attributes || got.Version != db.Version {
		t.Errorf("header fields lost: %+v", got)
	}
	if got.CreationDate != 1000 || got.ModificationDate != 2000 || got.LastBackupDate != 1500 {
		t.Errorf("dates lost: %+v", got)
	}
	if got.Type != FourCC("data") || got.Creator != FourCC("test") {
		t.Errorf("type/creator lost")
	}
	if len(got.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(got.Records))
	}
	for i := range db.Records {
		if string(got.Records[i].Data) != string(db.Records[i].Data) {
			t.Errorf("record %d data = %q, want %q", i, got.Records[i].Data, db.Records[i].Data)
		}
		if got.Records[i].Attr != db.Records[i].Attr {
			t.Errorf("record %d attr lost", i)
		}
		if got.Records[i].UniqueID != db.Records[i].UniqueID {
			t.Errorf("record %d unique id lost", i)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for i, c := range garbageImages() {
		if _, err := Parse(c); i != 2 && !errors.Is(err, simerr.ErrCorruptState) {
			t.Errorf("case %d: err = %v, want ErrCorruptState", i, err)
		}
	}
}

// garbageImages are the images TestParseRejectsGarbage feeds to Parse
// (all rejected but case 2), and FuzzPDBParse's seeds.
func garbageImages() [][]byte {
	big := make([]byte, 80) // an absurd record count
	big[76] = 0xFF
	big[77] = 0xFF
	return [][]byte{
		nil,
		make([]byte, 10),
		[]byte(strings.Repeat("x", 80)), // header-sized but bogus count
		big,
		// Record 0 starting inside the header, then inside the record
		// index: both would decode header or index bytes as its payload.
		withOffset0(0),
		withOffset0(headerLen + 4),
	}
}

// withOffset0 is sample()'s image with record 0's offset replaced.
func withOffset0(off uint32) []byte {
	img := sample().Serialize()
	binary.BigEndian.PutUint32(img[headerLen:], off)
	return img
}

// Parse may allocate at most allocPerByte·len(input) + allocFixed bytes.
// Valid images of 65,535 empty records cost up to 24.9 bytes per input
// byte (eight index bytes buy a 32-byte Record, and the record slice
// grows by doubling); hostile headers cost under 300 bytes.
const (
	allocPerByte = 32
	allocFixed   = 1 << 10
)

// TestPDBHostileHeaders: Parse rejects each hostile header as corrupt
// state, allocating in proportion to the input, never to what the header
// declares.
func TestPDBHostileHeaders(t *testing.T) {
	noIndex := make([]byte, headerLen)
	binary.BigEndian.PutUint16(noIndex[76:], math.MaxUint16)
	farRecord := make([]byte, headerLen+8+16)
	binary.BigEndian.PutUint16(farRecord[76:], 1)
	binary.BigEndian.PutUint32(farRecord[headerLen:], math.MaxUint32)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"65,535 records with no index bytes", noIndex},
		{"record offset of 2^32-1", farRecord},
	} {
		var err error
		alloc := alloctest.Allocated(func() { _, err = Parse(tc.data) })
		if !errors.Is(err, simerr.ErrCorruptState) {
			t.Errorf("%s: err = %v, want ErrCorruptState", tc.name, err)
		}
		alloctest.CheckAllocs(t, tc.name, len(tc.data), alloc, allocPerByte, allocFixed)
	}
}

// FuzzPDBParse feeds arbitrary bytes to Parse: it must never panic or
// exceed the allocation bound, every rejection must be ErrCorruptState,
// every record of an accepted image must start at or after the end of
// the record index, and an accepted database must survive Serialize and
// Parse unchanged.
func FuzzPDBParse(f *testing.F) {
	f.Add(sample().Serialize())
	for _, img := range garbageImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var db *Database
		var err error
		alloc := alloctest.Allocated(func() { db, err = Parse(data) })
		alloctest.CheckAllocs(t, "Parse", len(data), alloc, allocPerByte, allocFixed)
		if err != nil {
			if !errors.Is(err, simerr.ErrCorruptState) {
				t.Fatalf("rejection is not ErrCorruptState: %v", err)
			}
			return
		}
		indexEnd := headerLen + 8*len(db.Records)
		for i := range db.Records {
			if off := binary.BigEndian.Uint32(data[headerLen+8*i:]); off < uint32(indexEnd) {
				t.Fatalf("record %d accepted at offset %d, inside the %d-byte header and index", i, off, indexEnd)
			}
		}
		again, err := Parse(db.Serialize())
		if err != nil {
			t.Fatalf("re-parse of a serialized accepted image failed: %v", err)
		}
		if !reflect.DeepEqual(again, db) {
			t.Fatalf("round trip changed the database:\n got %+v\nwant %+v", again, db)
		}
	})
}

func TestFourCC(t *testing.T) {
	if FourCC("data") != 0x64617461 {
		t.Errorf("FourCC(data) = %#x", FourCC("data"))
	}
	if FourCCString(FourCC("psys")) != "psys" {
		t.Errorf("round trip failed")
	}
	// Short codes pad with spaces.
	if FourCCString(FourCC("ab")) != "ab  " {
		t.Errorf("short code = %q", FourCCString(FourCC("ab")))
	}
}

func TestCompareIdentical(t *testing.T) {
	if diffs := Compare(sample(), sample()); len(diffs) != 0 {
		t.Errorf("identical databases produced diffs: %v", diffs)
	}
}

func TestCompareFindsDateDifferences(t *testing.T) {
	a, b := sample(), sample()
	b.CreationDate = 0
	b.LastBackupDate = 0
	diffs := Compare(a, b)
	if len(diffs) != 2 {
		t.Fatalf("diffs = %v, want 2 date diffs", diffs)
	}
	for _, d := range diffs {
		if !DateFields[d.Field] {
			t.Errorf("unexpected field %q", d.Field)
		}
	}
	if !OnlyExpected(diffs) {
		t.Error("date-only diffs should be classified as expected")
	}
}

func TestCompareFindsRecordDifferences(t *testing.T) {
	a, b := sample(), sample()
	b.Records[0].Data = []byte("tampered")
	diffs := Compare(a, b)
	if len(diffs) != 1 || diffs[0].Field != "record 0" {
		t.Fatalf("diffs = %v, want one record diff", diffs)
	}
	if OnlyExpected(diffs) {
		t.Error("record diff must be classified unexpected")
	}
}

func TestCompareRecordCountDifference(t *testing.T) {
	a, b := sample(), sample()
	b.Records = b.Records[:2]
	diffs := Compare(a, b)
	found := false
	for _, d := range diffs {
		if d.Field == "NUM RECORDS" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing NUM RECORDS diff: %v", diffs)
	}
}

func TestOnlyExpectedPsysLaunchDB(t *testing.T) {
	diffs := []FieldDiff{
		{DB: "psysLaunchDB", Field: "record 3", A: "aa", B: "bb"},
		{DB: "MemoDB", Field: "CREATION DATE", A: "1", B: "0"},
	}
	if !OnlyExpected(diffs) {
		t.Error("psysLaunchDB record diffs + date diffs are the expected §3.4 set")
	}
	diffs = append(diffs, FieldDiff{DB: "MemoDB", Field: "record 0", A: "x", B: "y"})
	if OnlyExpected(diffs) {
		t.Error("MemoDB record diff must not be expected")
	}
}

func TestCompareIgnoresDirtyAttribute(t *testing.T) {
	a, b := sample(), sample()
	b.Attributes |= AttrDirty
	if diffs := Compare(a, b); len(diffs) != 0 {
		t.Errorf("dirty bit should be masked in comparison: %v", diffs)
	}
}

// Property: any database with printable names and arbitrary record bytes
// survives a serialize/parse round trip.
func TestRoundTripQuick(t *testing.T) {
	f := func(name string, recs [][]byte, attr uint16, dates [3]uint32) bool {
		if len(name) > 30 {
			name = name[:30]
		}
		name = strings.Map(func(r rune) rune {
			if r < 32 || r > 126 {
				return 'x'
			}
			return r
		}, name)
		db := &Database{
			Name:             name,
			Attributes:       attr,
			CreationDate:     dates[0],
			ModificationDate: dates[1],
			LastBackupDate:   dates[2],
			Type:             FourCC("quik"),
			Creator:          FourCC("test"),
		}
		for i, r := range recs {
			if i >= 20 {
				break
			}
			if len(r) > 256 {
				r = r[:256]
			}
			db.Records = append(db.Records, Record{UniqueID: uint32(i), Data: r})
		}
		got, err := Parse(db.Serialize())
		if err != nil {
			return false
		}
		if got.Name != db.Name || len(got.Records) != len(db.Records) {
			return false
		}
		for i := range db.Records {
			if string(got.Records[i].Data) != string(db.Records[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFullActivityLogIs1536KB checks the paper's §2.3.3 arithmetic: "If
// the database contains the maximum number of the largest size records, it
// would require a total of 1536 KB of memory for the records and the
// database header information" — 65,536 records of 16 bytes plus their
// 8-byte index entries.
func TestFullActivityLogIs1536KB(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 1.5 MB image")
	}
	db := &Database{Name: "ActivityLogDB"}
	rec := make([]byte, 16)
	db.Records = make([]Record, 65536)
	for i := range db.Records {
		db.Records[i] = Record{UniqueID: uint32(i), Data: rec}
	}
	img := db.Serialize()
	kb := float64(len(img)) / 1024
	// 65536*(16+8) bytes = exactly 1536 KB; the fixed header adds 80 B.
	if kb < 1536 || kb > 1537 {
		t.Errorf("full log database = %.1f KB, paper computes 1536 KB", kb)
	}
}
