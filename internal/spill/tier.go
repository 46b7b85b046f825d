// Package spill implements the memory-tiering backend: a spillable store
// for per-(worker,variable) arena blocks. A fully-reduced level of a
// quiescent Manager — no build in flight, so post-reduction nodes are
// immutable until the next GC — can be written to a level-major spill
// file and its heap blocks released. On Linux the spilled run is then
// remapped read-only via mmap, so the Ref-resolution hot path is
// unchanged: loads through the mapped block table fault pages in on
// demand and the OS page cache, not the Go heap, owns the bytes. On
// other platforms (no mmap backend) a spilled level is unreadable until
// it is explicitly unspilled, and the kernel unspills before any read.
//
// Layout: one file per level, `level-%04d.spill`, holding every
// worker's blocks for that level back to back (worker-major) — the
// level-major framing of the snapshot segment encoding, but with raw
// block images instead of varint deltas, because a delta stream cannot
// be memory-mapped in place. Spill files are same-machine scratch state
// (native endianness, native Node layout), not a portable interchange
// format; snapshots remain the durable format, and stale spill files
// are wiped on Open.
//
// Each block is BlockSize*NodeBytes = 98304 bytes = 24 OS pages, and
// the header is padded to a page multiple, so every block in the file
// is page-aligned — a requirement for handing mmap'd subslices to the
// arena block table.
//
// Concurrency contract: Spill/Unspill/Prefetch/Close are serialized by
// the tier's mutex and must only run while the owning kernel guarantees
// no writer touches the affected arenas (quiescent boundary, or the
// kernel's per-level pin path). Readers need no coordination: arena
// block tables are swapped atomically and old tables stay valid until
// ReleaseRetired unmaps them at the next quiescent point. The atomic
// getters (SpilledLevelCount, SpilledBytes) are safe from any
// goroutine and are the fast "is tiering even active" gate on hot
// paths.
package spill

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/node"
)

const (
	magic      = "BFBDSPL1"
	version    = 1
	pageSize   = 4096
	blockBytes = node.BlockSize * node.NodeBytes // 98304, a page multiple
	segSize    = 32                              // per-worker segment table entry
	fixedHdr   = 48                              // bytes before the segment table
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment records one worker's allocator state for a spilled level.
type segment struct {
	n, free, nFree uint64
	nBlocks        uint64
}

// spilledLevel is the in-memory record of one level currently on disk.
type spilledLevel struct {
	path         string
	segs         []segment
	payloadBytes uint64
	mapping      []byte // whole-file mapping; nil on platforms without mmap
	prefetched   bool   // a WILLNEED advice was issued and not yet consumed
}

// Stats is a point-in-time snapshot of tier activity counters.
type Stats struct {
	SpilledLevels int
	SpilledBytes  uint64
	SpillOps      uint64
	UnspillOps    uint64
	SpillNS       uint64
	UnspillNS     uint64
	PrefetchHits  uint64
}

// Tier manages the spill files and mappings for one Manager's node
// store.
type Tier struct {
	dir string

	mu     sync.Mutex
	levels map[int]*spilledLevel

	// retired holds mappings whose level has been unspilled (heap blocks
	// swapped back in) but whose pages may still be referenced by readers
	// that loaded the old block table mid-build. They are unmapped by
	// ReleaseRetired at the next quiescent boundary.
	retired [][]byte

	spilledLevelN atomic.Int64
	spilledBytes  atomic.Uint64
	spillOps      atomic.Uint64
	unspillOps    atomic.Uint64
	spillNS       atomic.Uint64
	unspillNS     atomic.Uint64
	prefetchHits  atomic.Uint64
}

// Open creates (or reuses) the spill directory and returns a Tier over
// it. Any stale *.spill files — leftovers from a crash, possibly
// truncated or corrupt — are removed: spill files are scratch state and
// the heap (or a checkpoint+WAL recovery) is always the source of
// truth.
func Open(dir string) (*Tier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: create dir: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, "*.spill"))
	if err != nil {
		return nil, fmt.Errorf("spill: scan dir: %w", err)
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return nil, fmt.Errorf("spill: remove stale file: %w", err)
		}
	}
	return &Tier{dir: dir, levels: make(map[int]*spilledLevel)}, nil
}

// Dir returns the directory holding this tier's spill files.
func (t *Tier) Dir() string { return t.dir }

// IsSpilled reports whether level is currently spilled.
func (t *Tier) IsSpilled(level int) bool {
	if t.spilledLevelN.Load() == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.levels[level]
	return ok
}

// SpilledLevelCount returns the number of levels currently spilled. It
// is the lock-free fast gate hot paths consult before taking any lock.
func (t *Tier) SpilledLevelCount() int { return int(t.spilledLevelN.Load()) }

// SpilledBytes returns the total payload bytes currently on disk.
func (t *Tier) SpilledBytes() uint64 { return t.spilledBytes.Load() }

// LevelBytes returns the on-disk payload bytes of one spilled level
// (zero when the level is resident).
func (t *Tier) LevelBytes(level int) uint64 {
	if t.spilledLevelN.Load() == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.levels[level]; ok {
		return rec.payloadBytes
	}
	return 0
}

// MmapEnabled reports whether this platform serves spilled levels
// through read-only file mappings (reads need no unspill).
const MmapEnabled = mmapEnabled

// SpilledLevels returns the spilled level numbers in ascending order.
func (t *Tier) SpilledLevels() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.levels))
	for l := range t.levels {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Stats returns a snapshot of the tier's activity counters.
func (t *Tier) Stats() Stats {
	return Stats{
		SpilledLevels: int(t.spilledLevelN.Load()),
		SpilledBytes:  t.spilledBytes.Load(),
		SpillOps:      t.spillOps.Load(),
		UnspillOps:    t.unspillOps.Load(),
		SpillNS:       t.spillNS.Load(),
		UnspillNS:     t.unspillNS.Load(),
		PrefetchHits:  t.prefetchHits.Load(),
	}
}

func levelPath(dir string, level int) string {
	return filepath.Join(dir, fmt.Sprintf("level-%04d.spill", level))
}

func headerLen(workers int) uint64 {
	raw := uint64(fixedHdr + workers*segSize + 4) // +4 for the header CRC
	return (raw + pageSize - 1) &^ (pageSize - 1)
}

// nodesAsBytes reinterprets a block's node slice as its raw byte image.
// Node is three uint64 fields with no padding (NodeBytes == 24), so the
// image is exactly the in-memory representation.
func nodesAsBytes(b []Node) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), len(b)*node.NodeBytes)
}

// Node aliases node.Node so the unsafe helpers read naturally.
type Node = node.Node

// bytesAsNodes reinterprets a page-aligned byte slice as a node block.
func bytesAsNodes(b []byte) []Node {
	return unsafe.Slice((*Node)(unsafe.Pointer(&b[0])), len(b)/node.NodeBytes)
}

// SpillLevel writes every worker's blocks for level to the level's
// spill file and swaps the arenas' heap blocks for the on-disk copy:
// a read-only mapping of the file where mmap is available, or nothing
// at all (reads then require UnspillLevel) otherwise. It is a no-op if
// the level is already spilled or holds no blocks. On any error the
// arenas are left untouched and fully resident: block adoption happens
// only after the file is durably renamed into place.
func (t *Tier) SpillLevel(st *node.Store, level int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.levels[level]; ok {
		return nil
	}
	workers := st.Workers()
	segs := make([]segment, workers)
	tables := make([][][]Node, workers)
	var payload uint64
	for w := 0; w < workers; w++ {
		blocks, n, free, nFree := st.Arena(w, level).ExportBlocks()
		segs[w] = segment{n: n, free: free, nFree: nFree, nBlocks: uint64(len(blocks))}
		tables[w] = blocks
		payload += uint64(len(blocks)) * blockBytes
	}
	if payload == 0 {
		return nil // nothing resident at this level; not worth a file
	}

	start := time.Now()
	path := levelPath(t.dir, level)
	if err := writeLevelFile(path, level, segs, tables, payload); err != nil {
		return err
	}

	rec := &spilledLevel{path: path, segs: segs, payloadBytes: payload}
	if mmapEnabled {
		data, err := mmapFile(path)
		if err != nil {
			// The file is written but unusable; drop it and stay resident.
			os.Remove(path)
			return fmt.Errorf("spill: map level %d: %w", level, err)
		}
		rec.mapping = data
		hdr := headerLen(workers)
		off := hdr
		for w := 0; w < workers; w++ {
			nb := int(segs[w].nBlocks)
			if nb == 0 {
				st.Arena(w, level).AdoptBlocks(nil, segs[w].n, segs[w].free, segs[w].nFree, true)
				continue
			}
			mblocks := make([][]Node, nb)
			for b := 0; b < nb; b++ {
				mblocks[b] = bytesAsNodes(data[off : off+blockBytes])
				off += blockBytes
			}
			st.Arena(w, level).AdoptBlocks(mblocks, segs[w].n, segs[w].free, segs[w].nFree, true)
		}
	} else {
		// Portable fallback: heap blocks are simply released; the level
		// must be unspilled before any read.
		for w := 0; w < workers; w++ {
			st.Arena(w, level).AdoptBlocks(nil, segs[w].n, segs[w].free, segs[w].nFree, true)
		}
	}

	t.levels[level] = rec
	t.spilledLevelN.Add(1)
	t.spilledBytes.Add(payload)
	t.spillOps.Add(1)
	t.spillNS.Add(uint64(time.Since(start).Nanoseconds()))
	return nil
}

// writeLevelFile stages the spill file next to its final path and
// renames it into place after an fsync, so a crash mid-spill leaves
// either no file or a complete one (and Open wipes both kinds anyway).
func writeLevelFile(path string, level int, segs []segment, tables [][][]Node, payload uint64) (err error) {
	if faultinject.Enabled {
		if ferr := faultinject.Check(faultinject.SpillWrite); ferr != nil {
			return ferr
		}
	}
	workers := len(segs)
	hdr := make([]byte, headerLen(workers))
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(level))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(workers))
	binary.LittleEndian.PutUint32(hdr[20:], node.BlockSize)
	binary.LittleEndian.PutUint32(hdr[24:], node.NodeBytes)
	binary.LittleEndian.PutUint64(hdr[32:], payload)

	payloadCRC := crc32.New(castagnoli)
	for w := range tables {
		for _, blk := range tables[w] {
			payloadCRC.Write(nodesAsBytes(blk))
		}
		base := fixedHdr + w*segSize
		binary.LittleEndian.PutUint64(hdr[base:], segs[w].n)
		binary.LittleEndian.PutUint64(hdr[base+8:], segs[w].free)
		binary.LittleEndian.PutUint64(hdr[base+16:], segs[w].nFree)
		binary.LittleEndian.PutUint64(hdr[base+24:], segs[w].nBlocks)
	}
	binary.LittleEndian.PutUint32(hdr[40:], payloadCRC.Sum32())
	crcOff := fixedHdr + workers*segSize
	binary.LittleEndian.PutUint32(hdr[crcOff:], crc32.Checksum(hdr[:crcOff], castagnoli))

	// Not internal/durable: spill files are scratch state wiped at startup
	// (DESIGN.md §14), so their renames need no directory fsync.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("spill: create: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(hdr); err != nil {
		return fmt.Errorf("spill: write header: %w", err)
	}
	for w := range tables {
		for _, blk := range tables[w] {
			if _, err = f.Write(nodesAsBytes(blk)); err != nil {
				return fmt.Errorf("spill: write payload: %w", err)
			}
		}
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("spill: sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("spill: close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("spill: rename: %w", err)
	}
	return nil
}

// UnspillLevel copies level's blocks back onto the heap, swaps them
// into the arenas, retires the file mapping (actual munmap is deferred
// to ReleaseRetired so mid-build readers holding the old block table
// stay safe), and deletes the spill file.
func (t *Tier) UnspillLevel(st *node.Store, level int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unspillLocked(st, level)
}

// UnspillAll brings every spilled level back to the heap.
func (t *Tier) UnspillAll(st *node.Store) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for level := range t.levels {
		if err := t.unspillLocked(st, level); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tier) unspillLocked(st *node.Store, level int) error {
	rec, ok := t.levels[level]
	if !ok {
		return nil
	}
	start := time.Now()

	var src []byte
	if rec.mapping != nil {
		src = rec.mapping
	} else {
		data, err := os.ReadFile(rec.path)
		if err != nil {
			return fmt.Errorf("spill: read back level %d: %w", level, err)
		}
		src = data
	}
	if err := verifyLevelFile(src, level, rec); err != nil {
		return err
	}

	hdr := headerLen(len(rec.segs))
	off := hdr
	for w := range rec.segs {
		seg := rec.segs[w]
		nb := int(seg.nBlocks)
		var heap [][]Node
		if nb > 0 {
			heap = make([][]Node, nb)
			for b := 0; b < nb; b++ {
				blk := make([]Node, node.BlockSize)
				copy(nodesAsBytes(blk), src[off:off+blockBytes])
				heap[b] = blk
				off += blockBytes
			}
		}
		st.Arena(w, level).AdoptBlocks(heap, seg.n, seg.free, seg.nFree, false)
	}

	if rec.mapping != nil {
		t.retired = append(t.retired, rec.mapping)
	}
	os.Remove(rec.path)
	delete(t.levels, level)
	t.spilledLevelN.Add(-1)
	t.spilledBytes.Add(^(rec.payloadBytes - 1)) // subtract
	t.unspillOps.Add(1)
	t.unspillNS.Add(uint64(time.Since(start).Nanoseconds()))
	if rec.prefetched {
		t.prefetchHits.Add(1)
	}
	return nil
}

// verifyLevelFile validates the header and payload checksums of a spill
// image before its contents are adopted back onto the heap.
func verifyLevelFile(data []byte, level int, rec *spilledLevel) error {
	workers := len(rec.segs)
	hdr := headerLen(workers)
	if uint64(len(data)) < hdr+rec.payloadBytes {
		return fmt.Errorf("spill: level %d file truncated: %d < %d", level, len(data), hdr+rec.payloadBytes)
	}
	if string(data[:8]) != magic {
		return fmt.Errorf("spill: level %d bad magic", level)
	}
	crcOff := fixedHdr + workers*segSize
	if got, want := crc32.Checksum(data[:crcOff], castagnoli), binary.LittleEndian.Uint32(data[crcOff:]); got != want {
		return fmt.Errorf("spill: level %d header checksum mismatch", level)
	}
	wantPayload := binary.LittleEndian.Uint32(data[40:])
	got := crc32.Checksum(data[hdr:hdr+rec.payloadBytes], castagnoli)
	if got != wantPayload {
		return fmt.Errorf("spill: level %d payload checksum mismatch", level)
	}
	return nil
}

// Prefetch advises the OS that the given levels will be read soon, in
// the order given — the breadth-first sweep passes the next k levels in
// sweep order. On platforms without madvise this only marks the levels
// so prefetch-hit accounting still works. Unknown or resident levels
// are skipped.
func (t *Tier) Prefetch(levels []int) {
	if t.spilledLevelN.Load() == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range levels {
		rec, ok := t.levels[l]
		if !ok {
			continue
		}
		if rec.mapping != nil {
			advise(rec.mapping, headerLen(len(rec.segs)), rec.payloadBytes)
		}
		rec.prefetched = true
	}
}

// Touch records a read-side touch of level. If the level was prefetched
// and is still mapped, the prefetch counted: the advice warmed pages a
// reader actually needed.
func (t *Tier) Touch(level int) {
	if t.spilledLevelN.Load() == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.levels[level]; ok && rec.prefetched {
		rec.prefetched = false
		t.prefetchHits.Add(1)
	}
}

// ReleaseRetired unmaps mappings retired by unspills. Callers must be
// at a quiescent boundary: no reader may still hold a block table that
// aliases a retired mapping.
func (t *Tier) ReleaseRetired() {
	t.mu.Lock()
	retired := t.retired
	t.retired = nil
	t.mu.Unlock()
	for _, m := range retired {
		munmapFile(m)
	}
}

// Close unmaps every live and retired mapping and, when removeFiles is
// set, deletes the spill directory. The owning store must never be read
// again through tables that alias tier mappings (the kernel unspills or
// discards the store first).
func (t *Tier) Close(removeFiles bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.levels {
		if rec.mapping != nil {
			munmapFile(rec.mapping)
		}
	}
	t.levels = make(map[int]*spilledLevel)
	t.spilledLevelN.Store(0)
	t.spilledBytes.Store(0)
	for _, m := range t.retired {
		munmapFile(m)
	}
	t.retired = nil
	if removeFiles {
		return os.RemoveAll(t.dir)
	}
	return nil
}
