// Checkpoint sidecars: a sweep interrupted mid-trace (SIGINT, deadline,
// crash between saves) resumes from a small flat file and finishes with
// results bit-identical to an uninterrupted run.
//
// Format (all little-endian):
//
//	"PALMCKP2"            8-byte magic
//	uint64 hierarchyHash  FNV-1a over engine choice + hierarchy set
//	uint64 refs           trace references consumed so far
//	uint32 nunits         unit count
//	nunits × {uint32 len, len bytes}   per-unit state blob
//	uint64 checksum       FNV-1a over everything above
//
// The chunk size and worker count are deliberately excluded from the
// hash: unit state depends only on the reference order, which both
// leave untouched, so a sweep may resume with a different parallelism
// than the one that wrote the sidecar.
package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"

	"palmsim/internal/cache"
	"palmsim/internal/simerr"
)

// checkpointMagic names the sidecar format. PALMCKP1 sidecars hashed
// configuration sweeps with a separate flat fingerprint; they fail the
// magic check rather than resume under a hash they were not written with.
const checkpointMagic = "PALMCKP2"

// DefaultCheckpointEveryChunks is the save cadence when
// Options.CheckpointEveryChunks is unset: with the default chunk size
// that is one snapshot per ~4M references.
const DefaultCheckpointEveryChunks = 64

func (o Options) checkpointEvery() int {
	if o.CheckpointEveryChunks <= 0 {
		return DefaultCheckpointEveryChunks
	}
	return o.CheckpointEveryChunks
}

type checkpointer struct {
	path  string
	every int
	units []any // every unit, each a cache.Stateful field of the sidecar
	hash  uint64
	refs  uint64 // references consumed, including any resumed prefix
	since int    // chunks consumed since the last save
}

func newCheckpointer(path string, every int, units []unit, hash uint64) (*checkpointer, error) {
	c := &checkpointer{path: path, every: every, hash: hash}
	for i, u := range units {
		if _, ok := u.(cache.Stateful); !ok {
			return nil, simerr.New(simerr.ErrBadCheckpoint, "sweep: checkpoint",
				fmt.Errorf("unit %d (%T) is not checkpointable", i, u))
		}
		c.units = append(c.units, u)
	}
	return c, nil
}

// hierarchyHash fingerprints the engine choice and hierarchy set — every
// level's geometry, replacement policy and write policy plus the content
// policy — so a sidecar written by one sweep cannot silently resume
// another (a foreign-policy sidecar is rejected even when the geometries
// coincide). It is the sidecar's only fingerprint: a configuration sweep
// hashes as its one-level hierarchies.
func hierarchyHash(hs []cache.Hierarchy, eng Engine) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(eng))
	put(uint64(len(hs)))
	for _, hr := range hs {
		put(uint64(hr.Content))
		put(uint64(len(hr.Levels)))
		for _, cfg := range hr.Levels {
			put(uint64(cfg.SizeBytes))
			put(uint64(cfg.LineBytes))
			put(uint64(cfg.Ways))
			put(uint64(cfg.Policy))
			put(uint64(cfg.Write))
		}
	}
	return h.Sum64()
}

func (c *checkpointer) consumed(n int) {
	c.refs += uint64(n)
	c.since++
}

func (c *checkpointer) due() bool { return c.since >= c.every }

// save encodes the sidecar in memory and writes it atomically
// (temp file in the same directory, then rename), so a crash mid-save
// leaves the previous snapshot intact. A failed rename removes the temp
// file it wrote; a failed write leaves the path alone, since whatever
// sits there may not be the sweep's. Callers must have quiesced the
// workers first: every produced chunk retired by every worker.
func (c *checkpointer) save() error {
	buf := make([]byte, 0, 4096)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, c.hash)
	buf = binary.LittleEndian.AppendUint64(buf, c.refs)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.units)))
	buf = cache.AppendFields(buf, c.units...)
	sum := fnv.New64a()
	sum.Write(buf)
	buf = binary.LittleEndian.AppendUint64(buf, sum.Sum64())

	tmp := c.path + ".tmp"
	err := os.WriteFile(tmp, buf, 0o644)
	if err == nil {
		if err = os.Rename(tmp, c.path); err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("sweep: checkpoint save: %w", err)
	}
	c.since = 0
	return nil
}

// load restores unit state from the sidecar. found is false when the
// file does not exist (fresh start); any malformed or mismatched
// sidecar fails with simerr.ErrBadCheckpoint rather than silently
// producing wrong numbers.
func (c *checkpointer) load() (skip uint64, found bool, err error) {
	raw, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	bad := func(format string, args ...any) error {
		return simerr.New(simerr.ErrBadCheckpoint, "sweep: resume", fmt.Errorf(format, args...))
	}
	if len(raw) < len(checkpointMagic)+8+8+4+8 {
		return 0, false, bad("sidecar truncated at %d bytes", len(raw))
	}
	if string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return 0, false, bad("bad magic %q", raw[:len(checkpointMagic)])
	}
	body, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	sum := fnv.New64a()
	sum.Write(body)
	if got, want := binary.LittleEndian.Uint64(tail), sum.Sum64(); got != want {
		return 0, false, bad("checksum mismatch: file %#x, computed %#x", got, want)
	}
	b := body[len(checkpointMagic):]
	if hash := binary.LittleEndian.Uint64(b); hash != c.hash {
		return 0, false, bad("configuration hash %#x does not match this sweep's %#x — sidecar was written by a different configuration set or engine", hash, c.hash)
	}
	b = b[8:]
	refs := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n := binary.LittleEndian.Uint32(b); int(n) != len(c.units) {
		return 0, false, bad("sidecar has %d units, sweep has %d", n, len(c.units))
	}
	if err := cache.RestoreFields(b[4:], c.units...); err != nil {
		return 0, false, simerr.New(simerr.ErrBadCheckpoint, "sweep: resume", err)
	}
	c.refs = refs
	return refs, true, nil
}

// removeSidecar deletes the sidecar after a successful sweep; a leftover
// file would make the next Resume=true run skip trace it never consumed.
func (c *checkpointer) removeSidecar() { os.Remove(c.path) }

// skipRefs advances src past the prefix a resumed checkpoint has
// already consumed, in chunk-sized address-only reads so cancellation
// still lands at a chunk boundary. A trace that ends early means the
// sidecar belongs to a longer trace — that is an ErrBadCheckpoint, not a
// clean end of trace.
func skipRefs(ctx context.Context, src Source, skip uint64, chunkRefs int) error {
	buf := make([]uint32, chunkRefs)
	remaining := skip
	for chunks := int64(0); remaining > 0; chunks++ {
		want := uint64(len(buf))
		if remaining < want {
			want = remaining
		}
		refs, _, done, err := readChunk(ctx, "sweep: resume skip", chunks, src, nil, buf[:want], nil)
		if err != nil {
			return err
		}
		remaining -= uint64(len(refs))
		if done && remaining > 0 {
			return simerr.New(simerr.ErrBadCheckpoint, "sweep: resume",
				fmt.Errorf("trace ended %d references short of the checkpoint's %d", remaining, skip))
		}
	}
	return nil
}
