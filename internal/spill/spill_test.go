package spill

import (
	"os"
	"path/filepath"
	"testing"

	"bfbdd/internal/node"
)

// Blocks are mapped straight into arena block tables, so each must start
// on a page boundary: the header is padded to a page multiple, and the
// block size must be one too.
func TestBlockBytesIsPageMultiple(t *testing.T) {
	if blockBytes%pageSize != 0 {
		t.Fatalf("blockBytes = %d: not a multiple of the %d-byte page", blockBytes, pageSize)
	}
}

// fillLevel allocates count nodes at (worker, level) with deterministic
// payloads and returns the refs.
func fillLevel(st *node.Store, worker, level, count int) []node.Ref {
	refs := make([]node.Ref, count)
	for i := 0; i < count; i++ {
		lo := node.MakeRef(level+1, 0, uint64(i))
		hi := node.MakeRef(level+2, 0, uint64(i*2))
		refs[i] = st.NewNode(worker, level, lo, hi)
	}
	return refs
}

func TestSpillRoundTrip(t *testing.T) {
	st := node.NewStore(2, 4)
	refs0 := fillLevel(st, 0, 1, 3*node.BlockSize/2) // spans two blocks
	refs1 := fillLevel(st, 1, 1, 10)
	want := make(map[node.Ref]node.Node)
	for _, r := range append(append([]node.Ref{}, refs0...), refs1...) {
		want[r] = *st.Node(r)
	}

	tier, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close(true)

	before := st.ResidentBytes()
	if before == 0 {
		t.Fatal("expected resident bytes before spill")
	}
	if err := tier.SpillLevel(st, 1); err != nil {
		t.Fatal(err)
	}
	if !tier.IsSpilled(1) || tier.SpilledLevelCount() != 1 {
		t.Fatalf("level 1 not recorded as spilled")
	}
	if got := st.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes after spilling the only level = %d, want 0", got)
	}
	if tier.SpilledBytes() == 0 {
		t.Fatal("spilled bytes not accounted")
	}
	if _, err := os.Stat(filepath.Join(tier.Dir(), "level-0001.spill")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	if mmapEnabled {
		// Mapped reads resolve identically through the swapped table.
		for r, n := range want {
			if got := *st.Node(r); got != n {
				t.Fatalf("mapped read of %v = %+v, want %+v", r, got, n)
			}
		}
	}

	if err := tier.UnspillLevel(st, 1); err != nil {
		t.Fatal(err)
	}
	tier.ReleaseRetired()
	if tier.IsSpilled(1) || tier.SpilledBytes() != 0 {
		t.Fatal("level still recorded after unspill")
	}
	if got := st.ResidentBytes(); got != before {
		t.Fatalf("resident bytes after unspill = %d, want %d", got, before)
	}
	for r, n := range want {
		if got := *st.Node(r); got != n {
			t.Fatalf("read after unspill of %v = %+v, want %+v", r, got, n)
		}
	}
	if _, err := os.Stat(filepath.Join(tier.Dir(), "level-0001.spill")); !os.IsNotExist(err) {
		t.Fatalf("spill file not deleted after unspill: %v", err)
	}

	// Allocation into the unspilled level works again.
	fillLevel(st, 0, 1, 5)

	s := tier.Stats()
	if s.SpillOps != 1 || s.UnspillOps != 1 {
		t.Fatalf("ops = %+v, want one spill and one unspill", s)
	}
}

func TestSpillEmptyLevelIsNoop(t *testing.T) {
	st := node.NewStore(1, 3)
	tier, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close(true)
	if err := tier.SpillLevel(st, 2); err != nil {
		t.Fatal(err)
	}
	if tier.SpilledLevelCount() != 0 {
		t.Fatal("empty level should not spill")
	}
}

func TestOpenWipesStaleFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "level-0007.spill")
	if err := os.WriteFile(stale, []byte("garbage from a previous crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	tier, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close(true)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale spill file survived Open")
	}
}

func TestMappedArenaAllocPanics(t *testing.T) {
	if !mmapEnabled {
		t.Skip("portable spill leaves no mapped arenas with blocks")
	}
	st := node.NewStore(1, 2)
	fillLevel(st, 0, 0, 4)
	tier, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close(true)
	if err := tier.SpillLevel(st, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc into mapped arena did not panic")
		}
	}()
	st.Arena(0, 0).Alloc(node.Zero, node.One)
}

func TestPrefetchHitAccounting(t *testing.T) {
	st := node.NewStore(1, 3)
	fillLevel(st, 0, 0, 8)
	fillLevel(st, 0, 1, 8)
	tier, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close(true)
	for _, l := range []int{0, 1} {
		if err := tier.SpillLevel(st, l); err != nil {
			t.Fatal(err)
		}
	}
	tier.Prefetch([]int{0, 1, 2}) // 2 is resident: skipped
	tier.Touch(0)                 // read-side touch consumes the mark
	if err := tier.UnspillLevel(st, 1); err != nil {
		t.Fatal(err)
	}
	if got := tier.Stats().PrefetchHits; got != 2 {
		t.Fatalf("prefetch hits = %d, want 2", got)
	}
	tier.Touch(0) // mark already consumed: no double count
	if got := tier.Stats().PrefetchHits; got != 2 {
		t.Fatalf("prefetch hits after re-touch = %d, want 2", got)
	}
}
