package unique

import (
	"math/rand"
	"testing"

	"bfbdd/internal/node"
)

// model drives one Table beside a Go map from child pair to ref and fails
// the test the moment they disagree. The table's level is not 0 and its
// nodes come from several workers' arenas, so a slot that decodes to the
// wrong level or worker shows.
type model struct {
	tb      testing.TB
	st      *node.Store
	tab     Table
	level   int
	workers int
	want    map[[2]node.Ref]node.Ref
}

func newModel(tb testing.TB, workers, level int) *model {
	return &model{
		tb:      tb,
		st:      node.NewStore(workers, level+1),
		level:   level,
		workers: workers,
		want:    make(map[[2]node.Ref]node.Ref),
	}
}

// key returns the child pair numbered i. Children sit below the table's
// level, as a real node's do, so they never resolve in this store.
func (m *model) key(i uint64) (low, high node.Ref) {
	return node.MakeRef(m.level+1, int(i%3), i), node.MakeRef(m.level+2, 0, i%5)
}

// findOrAdd runs FindOrAdd for (low, high) in worker w and checks the
// result and the hit/miss counters against the map.
func (m *model) findOrAdd(w int, low, high node.Ref) {
	hits, misses := m.tab.Hits(), m.tab.Misses()
	r := m.tab.FindOrAdd(m.st, w, m.level, low, high)
	k := [2]node.Ref{low, high}
	if prev, ok := m.want[k]; ok {
		if r != prev || m.tab.Hits() != hits+1 || m.tab.Misses() != misses {
			m.tb.Fatalf("FindOrAdd(%v, %v) = %v, want hit on %v", low, high, r, prev)
		}
		return
	}
	if m.tab.Misses() != misses+1 || m.tab.Hits() != hits {
		m.tb.Fatalf("FindOrAdd(%v, %v) = %v counted as a hit for an absent key", low, high, r)
	}
	if r.Level() != m.level || r.Worker() != w {
		m.tb.Fatalf("new node %v not at level %d, worker %d", r, m.level, w)
	}
	if nd := m.st.Node(r); nd.Low != low || nd.High != high {
		m.tb.Fatalf("new node %v holds (%v, %v), want (%v, %v)", r, nd.Low, nd.High, low, high)
	}
	m.want[k] = r
}

// rehash empties the table and re-inserts every entry in random order, as
// a compacting collection's rehash phase does.
func (m *model) rehash(rng *rand.Rand) {
	refs := make([]node.Ref, 0, len(m.want))
	for _, r := range m.want {
		refs = append(refs, r)
	}
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	m.tab.ResetBuckets(uint64(len(refs)))
	for _, r := range refs {
		m.tab.Insert(m.st, r)
	}
}

// sweep marks a random half of the entries and removes the rest, freeing
// their slots onto the arenas' free lists, as the free-list collector
// does.
func (m *model) sweep(rng *rand.Rand) {
	for w := 0; w < m.workers; w++ {
		m.st.Arena(w, m.level).PrepareMarks()
	}
	before := len(m.want)
	keep := make(map[node.Ref]bool)
	for k, r := range m.want {
		if rng.Intn(2) == 0 {
			word, bit := m.st.Arena(r.Worker(), r.Level()).MarkWord(r.Index())
			*word |= bit
			keep[r] = true
		} else {
			delete(m.want, k)
		}
	}
	freed := 0
	m.tab.RemoveUnmarked(m.st, func(r node.Ref) {
		if keep[r] || r.Level() != m.level {
			m.tb.Fatalf("RemoveUnmarked freed %v, which is marked or at the wrong level", r)
		}
		m.st.Arena(r.Worker(), r.Level()).Free(r.Index())
		freed++
	})
	if freed != before-len(keep) {
		m.tb.Fatalf("RemoveUnmarked freed %d nodes, want %d", freed, before-len(keep))
	}
}

// check asserts the table holds exactly the map's entries, within its
// load bound, and that each one is found as a hit.
func (m *model) check() {
	if m.tab.Count() != uint64(len(m.want)) {
		m.tb.Fatalf("Count = %d, model holds %d", m.tab.Count(), len(m.want))
	}
	if n := uint64(len(m.tab.slots)); m.tab.Count()*4 > n*3 || m.tab.Bytes() != n*8 {
		m.tb.Fatalf("%d entries in %d slots (Bytes %d): over 3/4 load", m.tab.Count(), n, m.tab.Bytes())
	}
	var occupied uint64
	for _, s := range m.tab.slots {
		if s != 0 {
			occupied++
		}
	}
	if occupied != m.tab.Count() {
		m.tb.Fatalf("%d occupied slots for Count %d", occupied, m.tab.Count())
	}
	for k := range m.want {
		m.findOrAdd(0, k[0], k[1])
	}
}

// fingerprintCollisions counts the slots a successful probe passes whose
// fingerprint equals the key's: each is an arena read that compares
// children and moves on.
func (m *model) fingerprintCollisions() int {
	n := 0
	mask := uint64(len(m.tab.slots) - 1)
	for p, s := range m.tab.slots {
		if s == 0 {
			continue
		}
		nd := m.st.Node(m.tab.level | node.Ref(s&refMask))
		for i := hashRef(nd.Low, nd.High) & mask; i != uint64(p); i = (i + 1) & mask {
			if m.tab.slots[i]&^refMask == s&^refMask {
				n++
			}
		}
	}
	return n
}

// TestTableModel fills one table far enough that 16-bit fingerprints
// collide, then takes it through a rehash, a sweep that frees half the
// nodes, refills that reuse the freed arena slots, and growth, checking
// it against the map after each step.
func TestTableModel(t *testing.T) {
	const keys = 390_000
	rng := rand.New(rand.NewSource(1))
	m := newModel(t, 3, 5)
	for i := uint64(0); i < keys; i++ {
		low, high := m.key(i)
		m.findOrAdd(rng.Intn(m.workers), low, high)
		if rng.Intn(4) == 0 { // a repeat of an earlier key
			low, high = m.key(uint64(rng.Int63n(int64(i + 1))))
			m.findOrAdd(rng.Intn(m.workers), low, high)
		}
	}
	m.check()
	if c := m.fingerprintCollisions(); c == 0 {
		t.Fatalf("no fingerprint collisions among %d keys; the test no longer exercises them", keys)
	} else {
		t.Logf("%d fingerprint collisions on successful probes of %d keys", c, keys)
	}

	m.rehash(rng)
	m.check()
	m.sweep(rng)
	m.check()
	for i := uint64(keys); i < keys+keys/2; i++ {
		low, high := m.key(i)
		m.findOrAdd(rng.Intn(m.workers), low, high)
	}
	m.check()
	m.sweep(rng)
	m.rehash(rng)
	m.check()
	if m.tab.MaxCount() < keys {
		t.Fatalf("MaxCount = %d, want >= %d", m.tab.MaxCount(), keys)
	}
}

// TestRehashFirstDecodesLevel covers a table whose first operation is the
// collector's ResetBuckets + Insert, as after a reorder: it must learn its
// level from the inserted refs, so FindOrAdd returns the same ref and
// RemoveUnmarked hands back refs at that level.
func TestRehashFirstDecodesLevel(t *testing.T) {
	const level = 3
	st := node.NewStore(2, level+1)
	var refs []node.Ref
	for i := uint64(0); i < 10; i++ {
		refs = append(refs, st.NewNode(int(i%2), level, node.MakeRef(level+1, 0, i), node.One))
	}
	var tab Table
	tab.ResetBuckets(uint64(len(refs)))
	for _, r := range refs {
		tab.Insert(st, r)
	}
	for _, r := range refs {
		nd := st.Node(r)
		if got := tab.FindOrAdd(st, 0, level, nd.Low, nd.High); got != r {
			t.Fatalf("FindOrAdd after rehash-first = %v, want %v", got, r)
		}
	}
	if tab.Misses() != 0 || tab.Count() != uint64(len(refs)) {
		t.Fatalf("misses=%d Count=%d", tab.Misses(), tab.Count())
	}

	var again Table
	again.ResetBuckets(uint64(len(refs)))
	for _, r := range refs {
		again.Insert(st, r)
	}
	for w := 0; w < 2; w++ {
		st.Arena(w, level).PrepareMarks()
	}
	again.RemoveUnmarked(st, func(r node.Ref) {
		if r.Level() != level {
			t.Fatalf("RemoveUnmarked handed back %v, want level %d", r, level)
		}
	})
	if again.Count() != 0 {
		t.Fatalf("Count after sweeping everything = %d", again.Count())
	}
}

// FuzzUniqueTable runs byte-coded operation sequences against the model.
// Each byte picks an operation: a FindOrAdd whose key and worker come
// from the next bytes, a rehash, or a sweep seeded by the next byte.
func FuzzUniqueTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 5, 2, 7, 0, 1, 2, 3, 9})
	f.Add([]byte{0, 10, 1, 0, 11, 2, 0, 12, 0, 3, 1, 0, 10, 1, 3, 2})
	f.Add(make([]byte, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModel(t, 2, 2)
		for len(data) > 0 {
			op := data[0] % 4
			data = data[1:]
			arg := func() uint64 {
				if len(data) == 0 {
					return 0
				}
				b := data[0]
				data = data[1:]
				return uint64(b)
			}
			switch op {
			case 0, 1:
				low, high := m.key(arg())
				m.findOrAdd(int(arg()%2), low, high)
			case 2:
				m.rehash(rand.New(rand.NewSource(int64(arg()))))
			case 3:
				m.sweep(rand.New(rand.NewSource(int64(arg()))))
			}
		}
		m.check()
	})
}
