package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"bfbdd/internal/node"
)

func mkRef(level int, idx uint64) node.Ref { return node.MakeRef(level, 0, idx) }

func TestTaggedRoundTrip(t *testing.T) {
	r := mkRef(5, 99)
	v := FromRef(r)
	if v.IsOpHandle() {
		t.Fatal("ref tagged as op handle")
	}
	if v.Ref() != r {
		t.Fatalf("Ref() = %v", v.Ref())
	}
	h := Tagged(1<<63 | 12345)
	if !h.IsOpHandle() {
		t.Fatal("op handle not recognized")
	}
}

func TestTaggedQuick(t *testing.T) {
	f := func(level uint16, idx uint64) bool {
		r := mkRef(int(level)%node.TermLevel, idx&((1<<40)-1))
		v := FromRef(r)
		return !v.IsOpHandle() && v.Ref() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Bytes counts entryBytes per slot; an entry of 32 bytes packs two to a
// 64-byte cache line, and a field added carelessly would pad it past that.
func TestEntryBytesIsEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 || entryBytes != 32 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, entryBytes = %d, want 32", got, entryBytes)
	}
}

func TestLookupInsert(t *testing.T) {
	c := New(4, 10)
	f, g := mkRef(1, 0), mkRef(2, 3)
	if _, ok := c.Lookup(0, 1, f, g); ok {
		t.Fatal("hit on empty cache")
	}
	want := FromRef(mkRef(3, 7))
	c.Insert(0, 1, f, g, want)
	got, ok := c.Lookup(0, 1, f, g)
	if !ok || got != want {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	// Different op, same operands: miss.
	if _, ok := c.Lookup(0, 2, f, g); ok {
		t.Fatal("hit with wrong op")
	}
	// Different level segment: miss.
	if _, ok := c.Lookup(1, 1, f, g); ok {
		t.Fatal("hit in wrong segment")
	}
	if c.Hits() != 1 || c.Misses() != 3 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestEviction(t *testing.T) {
	c := New(1, initialBits) // fixed-size segment, no growth
	// Fill far beyond capacity; the cache must remain lossy but correct.
	n := uint64(4 << initialBits)
	for i := uint64(0); i < n; i++ {
		c.Insert(0, 1, mkRef(1, i), mkRef(2, i), FromRef(mkRef(0, i)))
	}
	hits := 0
	for i := uint64(0); i < n; i++ {
		if v, ok := c.Lookup(0, 1, mkRef(1, i), mkRef(2, i)); ok {
			if v.Ref().Index() != i {
				t.Fatalf("wrong value for key %d: %v", i, v.Ref())
			}
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("all entries evicted — hash must be degenerate")
	}
	if hits == int(n) {
		t.Fatal("no evictions in an over-filled direct-mapped cache")
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	c := New(1, 16)
	keys := make([]node.Ref, 0, 1<<initialBits)
	for i := uint64(0); i < 1<<initialBits; i++ {
		k := mkRef(1, i)
		keys = append(keys, k)
		c.Insert(0, 1, k, node.One, FromRef(mkRef(0, i)))
	}
	before := 0
	for _, k := range keys {
		if _, ok := c.Lookup(0, 1, k, node.One); ok {
			before++
		}
	}
	// Trigger growth with more inserts.
	for i := uint64(1 << initialBits); i < 1<<(initialBits+2); i++ {
		c.Insert(0, 1, mkRef(1, i), node.One, FromRef(mkRef(0, i)))
	}
	if c.Bytes() <= uint64(1<<initialBits)*entryBytes {
		t.Fatalf("segment did not grow: %d bytes", c.Bytes())
	}
	after := 0
	for _, k := range keys {
		if v, ok := c.Lookup(0, 1, k, node.One); ok {
			if v.Ref().Index() != k.Index() {
				t.Fatalf("wrong value after growth for %v", k)
			}
			after++
		}
	}
	if after == 0 {
		t.Fatal("growth lost every early entry")
	}
}

func TestGenerationInvalidation(t *testing.T) {
	c := New(2, 10)
	f, g := mkRef(1, 1), mkRef(1, 2)
	bddVal := FromRef(mkRef(0, 9))
	opVal := Tagged(1<<63 | 42)

	c.Insert(0, 1, f, g, bddVal)
	c.Insert(1, 1, f, g, opVal)

	// InvalidateOps kills op-handle entries only.
	c.InvalidateOps()
	if _, ok := c.Lookup(1, 1, f, g); ok {
		t.Fatal("op-handle entry survived InvalidateOps")
	}
	if v, ok := c.Lookup(0, 1, f, g); !ok || v != bddVal {
		t.Fatal("BDD entry should survive InvalidateOps")
	}
}

// TestRebuild pins what a garbage collection does to the cache: every
// segment comes back empty at half its size, one that would fall below
// 2^initialBits is freed, no entry of either kind survives, and the cache
// keeps working afterwards, op-handle generations included. Shrink, the
// budget rung, is the same rebuild with nothing kept.
func TestRebuild(t *testing.T) {
	c := New(4, 12)
	c.setSegment(&c.segs[0], 1<<11)
	c.setSegment(&c.segs[1], 1<<(initialBits+1))
	c.setSegment(&c.segs[2], 1<<initialBits)
	bddVal := FromRef(mkRef(0, 9))
	type key struct {
		level int
		f     node.Ref
		val   Tagged
	}
	var keys []key
	for level := 0; level < 3; level++ {
		for i := uint64(0); i < 64; i++ {
			keys = append(keys, key{level, mkRef(1, 2*i), bddVal}, key{level, mkRef(1, 2*i+1), Tagged(1<<63 | i)})
		}
	}
	for _, k := range keys {
		c.Insert(k.level, 1, k.f, node.One, k.val)
	}
	c.Rebuild()
	want := [4]int{1 << 10, 1 << initialBits, 0, 0}
	for i, n := range want {
		if got := len(c.segs[i].entries); got != n {
			t.Fatalf("segment %d has %d entries after Rebuild, want %d", i, got, n)
		}
		if c.segs[i].pressure != 0 {
			t.Fatalf("segment %d kept pressure %d", i, c.segs[i].pressure)
		}
	}
	if got, want := c.Bytes(), uint64(1<<10+1<<initialBits)*entryBytes; got != want {
		t.Fatalf("cache holds %d bytes after Rebuild, want %d", got, want)
	}
	for _, k := range keys {
		if v, ok := c.Lookup(k.level, 1, k.f, node.One); ok {
			t.Fatalf("entry %v at level %d survived Rebuild as %x", k.f, k.level, v)
		}
	}

	// The rebuilt cache takes both kinds again, and op handles still die
	// at the next top-level boundary.
	for _, k := range keys {
		c.Insert(k.level, 1, k.f, node.One, k.val)
	}
	c.InvalidateOps()
	hits := 0
	for _, k := range keys {
		v, ok := c.Lookup(k.level, 1, k.f, node.One)
		if k.val.IsOpHandle() && ok {
			t.Fatalf("op-handle entry %v survived InvalidateOps after Rebuild", k.f)
		}
		if !k.val.IsOpHandle() && ok {
			if v != k.val {
				t.Fatalf("entry %v reads %x, want %x", k.f, v, k.val)
			}
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no BDD entry inserted after Rebuild is visible")
	}

	before := c.Bytes()
	if freed := c.Shrink(); freed != before || c.Bytes() != 0 {
		t.Fatalf("Shrink freed %d of %d bytes, leaving %d", freed, before, c.Bytes())
	}
}

func TestUpdate(t *testing.T) {
	c := New(1, 10)
	f, g := mkRef(1, 1), mkRef(1, 2)
	opVal := Tagged(1<<63 | 7)
	c.Insert(0, 3, f, g, opVal)
	final := FromRef(mkRef(0, 5))
	c.Update(0, 3, f, g, final)
	v, ok := c.Lookup(0, 3, f, g)
	if !ok || v != final {
		t.Fatalf("after Update: %v,%v", v, ok)
	}
	// Update of an absent key is a no-op.
	c.Update(0, 3, mkRef(1, 99), g, final)
	if _, ok := c.Lookup(0, 3, mkRef(1, 99), g); ok {
		t.Fatal("Update created an entry")
	}
}

func TestStaleSlotReusable(t *testing.T) {
	c := New(1, 10)
	f, g := mkRef(1, 1), mkRef(1, 2)
	c.Insert(0, 1, f, g, Tagged(1<<63|1))
	c.InvalidateOps()
	// Same slot, new value: must win and be visible.
	c.Insert(0, 1, f, g, FromRef(mkRef(0, 3)))
	v, ok := c.Lookup(0, 1, f, g)
	if !ok || v.IsOpHandle() {
		t.Fatalf("reinsert into stale slot failed: %v,%v", v, ok)
	}
}

// distinctSlots returns n keys (as f operands, op 1, g One) that land in n
// different slots of a segment of 2^bits entries, skipping the first skip
// indices. Keys that share a slot evict each other while both are live,
// which is a genuine conflict and rightly counts as pressure; the tests
// that pin "no pressure" need a working set free of such conflicts.
func distinctSlots(n int, bits uint, skip uint64) []node.Ref {
	used := make(map[uint64]bool)
	keys := make([]node.Ref, 0, n)
	for i := skip; len(keys) < n; i++ {
		k := mkRef(1, i)
		slot := hash3(1, k, node.One) & (1<<bits - 1)
		if used[slot] {
			continue
		}
		used[slot] = true
		keys = append(keys, k)
	}
	return keys
}

// TestRefillAfterInvalidateDoesNotGrow: a working set smaller than one
// segment, rebuilt after every top-level boundary (InvalidateOps), must
// not ratchet the segment up however many inserts it makes in all. This
// is the pattern of a long gate-by-gate build or a long-lived session.
func TestRefillAfterInvalidateDoesNotGrow(t *testing.T) {
	c := New(1, 16)
	keys := distinctSlots(200, initialBits, 0)
	const total = 1_000_000
	for n := 0; n < total; {
		for i, k := range keys {
			c.Insert(0, 1, k, node.One, Tagged(1<<63|uint64(i)))
			n++
		}
		c.InvalidateOps()
	}
	if got, want := c.Bytes(), uint64(1<<initialBits)*entryBytes; got != want {
		t.Fatalf("segment grew to %d bytes after %d refills of a %d-key working set, want %d",
			got, total/len(keys), len(keys), want)
	}
}

// TestWorkingSetLargerThanSegmentGrows: live entries that keep evicting
// each other within one generation still grow the segment, up to maxBits.
func TestWorkingSetLargerThanSegmentGrows(t *testing.T) {
	const maxBits = initialBits + 3
	c := New(1, maxBits)
	n := uint64(4 << initialBits)
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < n; i++ {
			c.Insert(0, 1, mkRef(1, i), node.One, Tagged(1<<63|i))
		}
	}
	if got, want := c.Bytes(), uint64(1<<maxBits)*entryBytes; got != want {
		t.Fatalf("segment is %d bytes after a working set 4x its size, want the %d-byte cap", got, want)
	}
}

// TestStaleAndEmptyEvictionsAddNoPressure pins the growth rule: only an
// insert that evicts a live entry with a different key counts as pressure.
func TestStaleAndEmptyEvictionsAddNoPressure(t *testing.T) {
	c := New(1, 16)
	s := &c.segs[0]
	a := distinctSlots(1<<initialBits, initialBits, 0)
	// b[i] lands in a[i]'s slot but is a different key.
	b := make([]node.Ref, len(a))
	for i, k := range a {
		slot := hash3(1, k, node.One) & (1<<initialBits - 1)
		for j := uint64(1 << 20); ; j++ {
			if r := mkRef(1, j); r != k && hash3(1, r, node.One)&(1<<initialBits-1) == slot {
				b[i] = r
				break
			}
		}
	}
	fill := func(keys []node.Ref, op bool) {
		for i, k := range keys {
			v := FromRef(mkRef(0, uint64(i)))
			if op {
				v = Tagged(1<<63 | uint64(i))
			}
			c.Insert(0, 1, k, node.One, v)
		}
	}
	check := func(what string, want uint64) {
		t.Helper()
		if s.pressure != want {
			t.Fatalf("%s: pressure %d, want %d", what, s.pressure, want)
		}
	}

	fill(a, true)
	check("inserts into empty slots", 0)
	fill(a, true)
	check("re-inserts of the same keys", 0)
	c.InvalidateOps()
	fill(b, false)
	check("evictions of stale op-handle entries", 0)
	c.Rebuild()
	fill(a, true)
	check("inserts after a rebuild", 0)
	fill(b, false)
	check("evictions of live entries", uint64(len(a)))
	if got, want := c.Bytes(), uint64(1<<initialBits)*entryBytes; got != want {
		t.Fatalf("segment is %d bytes, want %d", got, want)
	}
}
