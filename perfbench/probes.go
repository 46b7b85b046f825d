package main

import (
	"math/rand"
	"sync"
	"time"

	"bfbdd/internal/cache"
	"bfbdd/internal/core"
	"bfbdd/internal/node"
	"bfbdd/internal/unique"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probe times reps repetitions of body, each doing n operations after an
// untimed prepare, following one untimed warm-up repetition. It records
// the median nanoseconds per operation and keeps the quartiles for the
// span file.
func (r *run) probe(name string, n int, prepare, body func()) {
	if prepare == nil {
		prepare = func() {}
	}
	prepare()
	body()
	ns := make([]float64, r.cfg.probeReps)
	for i := range ns {
		prepare()
		t0 := time.Now()
		body()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	q1, q2, q3 := quartiles(ns)
	r.set(name, q2)
	probes, _ := r.figures["probes"].(map[string]any)
	if probes == nil {
		probes = map[string]any{}
		r.figures["probes"] = probes
	}
	probes[name] = map[string]any{"ns": ns, "median": q2, "q1": q1, "q3": q3}
	r.detail("probe %-36s median %9.2f ns  IQR %.2f-%.2f  (%d reps x %d ops)", name, q2, q1, q3, len(ns), n)
}

// runProbes times single calls into each layer's public functions, from
// the benchmark's side of the API: the unique table, the compute cache,
// the node arena, the kernel's node constructor, and evaluation through a
// live manager and a compiled artifact. Every traced run reports them, so
// a layer change shows in its own number on any workload.
func runProbes(r *run) error {
	n := r.cfg.probeN
	rng := rand.New(rand.NewSource(r.cfg.seed))
	lo := make([]node.Ref, n)
	hi := make([]node.Ref, n)
	for i := range lo {
		lo[i] = node.MakeRef(0, 0, uint64(rng.Int63n(1<<30)))
		hi[i] = node.MakeRef(0, 0, uint64(i))
	}

	// Unique table: all hits on a filled table, all misses into a table
	// emptied between repetitions (buckets presized, arena blocks kept, so
	// the loop allocates nothing), and hits from two goroutines taking the
	// table lock as the parallel reduction does.
	st := node.NewStore(1, 2)
	var t unique.Table
	for i := range lo {
		t.FindOrAdd(st, 0, 1, lo[i], hi[i])
	}
	r.probe("unique.find_or_add_hit_ns", n, nil, func() {
		for i := range lo {
			sink += uint64(t.FindOrAdd(st, 0, 1, lo[i], hi[i]))
		}
	})
	r.probe("unique.find_or_add_miss_ns", n, func() {
		t.ResetBuckets(uint64(n))
		st.Arena(0, 1).Reset()
	}, func() {
		for i := range lo {
			sink += uint64(t.FindOrAdd(st, 0, 1, lo[i], hi[i]))
		}
	})
	r.probe("unique.find_or_add_contended_ns", n, nil, func() {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local uint64
				for i := w; i < n; i += 2 {
					t.Lock()
					local += uint64(t.FindOrAdd(st, 0, 1, lo[i], hi[i]))
					t.Unlock()
				}
				t.Lock()
				sink += local
				t.Unlock()
			}()
		}
		wg.Wait()
	})

	// Compute cache: one level's segment, grown to its 2^16-entry cap
	// before timing, so no repetition pays for growth.
	cc := cache.New(2, 16)
	insert := func() {
		for i := range lo {
			cc.Insert(1, 1, lo[i], hi[i], cache.FromRef(hi[i]))
		}
	}
	for p := 0; p < 4; p++ {
		insert()
	}
	r.probe("cache.insert_ns", n, nil, insert)
	r.probe("cache.lookup_ns", n, nil, func() {
		for i := range lo {
			v, _ := cc.Lookup(1, 1, lo[i], hi[i])
			sink += uint64(v)
		}
	})

	// Node arena: allocation into blocks kept across repetitions.
	var a node.Arena
	r.probe("node.alloc_ns", n, a.Reset, func() {
		for i := range lo {
			sink += a.Alloc(lo[i], hi[i])
		}
	})

	// Kernel node constructor: n new nodes into a fresh kernel, so the
	// cost includes the table growth and block allocation a build pays.
	var k *core.Kernel
	r.probe("core.mknode_ns", n, func() {
		k = core.NewKernel(core.Options{Levels: 2})
	}, func() {
		for i := range lo {
			sink += uint64(k.MkNode(1, lo[i], hi[i]))
		}
	})

	return evalProbes(r, rng)
}

// evalProbes times single-assignment evaluation of the widest multiplier
// output through the live manager and through its compiled artifact, and
// the artifact's batch evaluation, on seeded assignments.
func evalProbes(r *run, rng *rand.Rand) error {
	c, err := loadCircuit(r.cfg.rwCircuit)
	if err != nil {
		return err
	}
	m, outs, err := libraryBuild(c)
	if err != nil {
		return err
	}
	defer m.Close()
	mid := outs[len(outs)/2]
	fn, err := m.Compile(mid)
	if err != nil {
		return err
	}
	rows := make([][]bool, 1024)
	for i := range rows {
		rows[i] = make([]bool, c.NumInputs())
		for v := range rows[i] {
			rows[i][v] = rng.Intn(2) == 1
		}
	}
	want := fn.EvalBatch(0, rows)
	for i, row := range rows {
		if mid.Eval(row) != want[i] || fn.Eval(0, row) != want[i] {
			r.wrong("manager and compiled eval disagree on assignment %d", i)
			break
		}
	}
	const passes = 4
	n := passes * len(rows)
	r.probe("manager.eval_ns", n, nil, func() {
		for p := 0; p < passes; p++ {
			for _, row := range rows {
				if mid.Eval(row) {
					sink++
				}
			}
		}
	})
	r.probe("compiled.eval_ns", n, nil, func() {
		for p := 0; p < passes; p++ {
			for _, row := range rows {
				if fn.Eval(0, row) {
					sink++
				}
			}
		}
	})
	r.probe("compiled.eval_batch_ns_per_assign", n, nil, func() {
		for p := 0; p < passes; p++ {
			sink += uint64(len(fn.EvalBatch(0, rows)))
		}
	})
	return nil
}
