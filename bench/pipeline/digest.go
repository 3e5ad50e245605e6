package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"reflect"
	"sort"
	"strconv"

	"palmsim/internal/cache"
	"palmsim/internal/sim"
)

// digest is what one iteration computed, reduced to values that must
// repeat exactly: every iteration's digest equals the warm-up's, and at
// the default seed it equals the golden file in testdata/. It never
// covers the packed bytes, so encoder changes that keep the decoded
// stream identical still pass.
type digest struct {
	Sessions []sessionDigest `json:"sessions"`
}

type sessionDigest struct {
	Name string `json:"name"`
	Refs uint64 `json:"refs"`
	// Stats is every field of the replay's sim.RunStats.
	Stats map[string]string `json:"stats"`
	// TraceFNV hashes the emitted (address, kind) stream; the packed
	// trace must decode to that same stream (checkDecoded).
	TraceFNV string `json:"trace_fnv"`
	// Results maps a sweep plan to a hash over every field of every
	// cache.Result or cache.HierarchyResult it returned.
	Results map[string]string `json:"results,omitempty"`
	// Correlation is every field of the §3.3 log and §3.4 state reports.
	Correlation map[string]string `json:"correlation,omitempty"`
}

func newSessionDigest(name string, refs uint64, stats sim.RunStats, traceFNV uint64) sessionDigest {
	sd := sessionDigest{Name: name, Refs: refs, Stats: map[string]string{}, TraceFNV: hex(traceFNV), Results: map[string]string{}}
	flatten("", reflect.ValueOf(stats), sd.Stats)
	return sd
}

// clone copies sd with fresh maps, for design-space iterations that start
// from the set-up's replay digest.
func (sd sessionDigest) clone() sessionDigest {
	c := sd
	c.Results = map[string]string{}
	for k, v := range sd.Results {
		c.Results[k] = v
	}
	return c
}

func hex(v uint64) string { return fmt.Sprintf("%016x", v) }

// flatten records every exported scalar field under its dotted path;
// slices and maps record their length.
func flatten(prefix string, v reflect.Value, out map[string]string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name := f.Name
			if prefix != "" {
				name = prefix + "." + name
			}
			flatten(name, v.Field(i), out)
		}
	case reflect.Slice, reflect.Array, reflect.Map:
		out[prefix+".len"] = strconv.Itoa(v.Len())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[prefix] = strconv.FormatUint(v.Uint(), 10)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[prefix] = strconv.FormatInt(v.Int(), 10)
	case reflect.Float32, reflect.Float64:
		out[prefix] = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Bool:
		out[prefix] = strconv.FormatBool(v.Bool())
	case reflect.String:
		out[prefix] = v.String()
	}
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvUint(h uint64, v uint64, bytes int) uint64 {
	for i := 0; i < bytes; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashRefs extends h with FNV-1a over each reference's little-endian
// address and its kind byte (0, a fetch, when kinds is nil).
func hashRefs(h uint64, refs []uint32, kinds []uint8) uint64 {
	for i, a := range refs {
		h = fnvUint(h, uint64(a), 4)
		var k uint8
		if kinds != nil {
			k = kinds[i]
		}
		h = fnvUint(h, uint64(k), 1)
	}
	return h
}

// hashValue is FNV-1a over every exported field of v, recursively, so a
// field added to cache.Result is covered without touching this code.
func hashValue(h uint64, v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				h = hashValue(h, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		h = fnvUint(h, uint64(v.Len()), 8)
		for i := 0; i < v.Len(); i++ {
			h = hashValue(h, v.Index(i))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h = fnvUint(h, v.Uint(), 8)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h = fnvUint(h, uint64(v.Int()), 8)
	case reflect.Float32, reflect.Float64:
		h = fnvUint(h, math.Float64bits(v.Float()), 8)
	case reflect.Bool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		h = fnvUint(h, b, 1)
	case reflect.String:
		h = fnvUint(h, uint64(v.Len()), 8)
		for i := 0; i < v.Len(); i++ {
			h = fnvUint(h, uint64(v.String()[i]), 1)
		}
	}
	return h
}

func hashResults(results any) string { return hex(hashValue(fnvOffset, reflect.ValueOf(results))) }

// checkAccesses reports results whose L1 saw a different number of
// references than were swept.
func checkAccesses(plan string, refs uint64, results []cache.Result) []string {
	var bad []string
	for _, r := range results {
		if r.Accesses != refs {
			bad = append(bad, fmt.Sprintf("%s: %v saw %d accesses, %d refs were swept", plan, r.Config, r.Accesses, refs))
		}
	}
	return bad
}

// checkInclusion reports LRU results whose misses grow with associativity
// at a fixed set count and line size, which the LRU inclusion property
// forbids.
func checkInclusion(plan string, results []cache.Result) []string {
	type geom struct{ sets, line int }
	byGeom := map[geom][]cache.Result{}
	for _, r := range results {
		if r.Config.Policy == cache.LRU {
			g := geom{r.Config.Sets(), r.Config.LineBytes}
			byGeom[g] = append(byGeom[g], r)
		}
	}
	var bad []string
	for _, rs := range byGeom {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Config.Ways < rs[j].Config.Ways })
		for i := 1; i < len(rs); i++ {
			if rs[i].Misses > rs[i-1].Misses {
				bad = append(bad, fmt.Sprintf("%s: %v misses %d > %v misses %d", plan,
					rs[i].Config, rs[i].Misses, rs[i-1].Config, rs[i-1].Misses))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// diffDigest lists every difference between got and want.
func diffDigest(got, want *digest) []string {
	if len(got.Sessions) != len(want.Sessions) {
		return []string{fmt.Sprintf("%d sessions, want %d", len(got.Sessions), len(want.Sessions))}
	}
	var diffs []string
	for i, g := range got.Sessions {
		w := want.Sessions[i]
		if g.Name != w.Name || g.Refs != w.Refs || g.TraceFNV != w.TraceFNV {
			diffs = append(diffs, fmt.Sprintf("%s: refs %d trace %s, want %s refs %d trace %s",
				g.Name, g.Refs, g.TraceFNV, w.Name, w.Refs, w.TraceFNV))
		}
		for _, m := range []struct {
			what      string
			got, want map[string]string
		}{{"stats", g.Stats, w.Stats}, {"results", g.Results, w.Results}, {"correlation", g.Correlation, w.Correlation}} {
			keys := map[string]bool{}
			for k := range m.got {
				keys[k] = true
			}
			for k := range m.want {
				keys[k] = true
			}
			sorted := make([]string, 0, len(keys))
			for k := range keys {
				sorted = append(sorted, k)
			}
			sort.Strings(sorted)
			for _, k := range sorted {
				gv, gok := m.got[k]
				wv, wok := m.want[k]
				if gv != wv || gok != wok {
					diffs = append(diffs, fmt.Sprintf("%s: %s %s = %q, want %q", g.Name, m.what, k, gv, wv))
				}
			}
		}
	}
	return diffs
}

//go:embed testdata
var testdata embed.FS

// golden returns the committed digest for a workload at the default seed,
// or nil when none is committed.
func golden(name string) (*digest, error) {
	data, err := testdata.ReadFile("testdata/" + name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var d digest
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return &d, nil
}

func (d *digest) marshal() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
