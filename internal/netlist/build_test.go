package netlist

import (
	"math/rand"
	"slices"
	"testing"

	"bfbdd/internal/core"
)

func buildKernels(levels int) map[string]*core.Kernel {
	return map[string]*core.Kernel{
		"df":  core.NewKernel(core.Options{Levels: levels, Engine: core.EngineDF}),
		"pbf": core.NewKernel(core.Options{Levels: levels, Engine: core.EnginePBF, EvalThreshold: 64, GroupSize: 8}),
		"par": core.NewKernel(core.Options{
			Levels: levels, Engine: core.EnginePar, Workers: 3,
			EvalThreshold: 64, GroupSize: 8, Stealing: true,
		}),
	}
}

// checkBuildAgainstSim verifies the BDD build against gate-level
// simulation on random (or exhaustive, if small) input vectors.
func checkBuildAgainstSim(t *testing.T, k *core.Kernel, c *Circuit, inputLevel []int, trials int) {
	t.Helper()
	res, err := Build(k, c, inputLevel)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	rng := rand.New(rand.NewSource(77))
	n := c.NumInputs()
	exhaustive := n <= 10
	if exhaustive {
		trials = 1 << n
	}
	assign := make([]bool, k.Levels())
	in := make([]bool, n)
	for trial := 0; trial < trials; trial++ {
		for i := range in {
			if exhaustive {
				in[i] = trial>>i&1 == 1
			} else {
				in[i] = rng.Intn(2) == 1
			}
		}
		for pos, lvl := range inputLevel {
			assign[lvl] = in[pos]
		}
		want := c.Eval(in)
		refs := res.Refs()
		for o, r := range refs {
			if got := k.Eval(r, assign); got != want[o] {
				t.Fatalf("trial %d output %d: BDD=%v sim=%v", trial, o, got, want[o])
			}
		}
	}
}

func identityOrder(n int) []int {
	lv := make([]int, n)
	for i := range lv {
		lv[i] = i
	}
	return lv
}

func TestBuildSmallCircuitsAllEngines(t *testing.T) {
	circuits := []*Circuit{
		RippleAdder(3),
		Multiplier(3),
		Comparator(4),
		Parity(9),
	}
	for _, c := range circuits {
		for name, k := range buildKernels(c.NumInputs()) {
			t.Run(c.Name+"/"+name, func(t *testing.T) {
				checkBuildAgainstSim(t, k, c, identityOrder(c.NumInputs()), 0)
			})
		}
	}
}

func TestBuildWithGC(t *testing.T) {
	// Aggressive auto-GC during a build with many intermediate gates.
	c := Multiplier(5)
	k := core.NewKernel(core.Options{
		Levels: c.NumInputs(), Engine: core.EnginePBF,
		EvalThreshold: 32, GroupSize: 8,
		GCMinNodes: 32, GCGrowth: 1.2,
	})
	checkBuildAgainstSim(t, k, c, identityOrder(c.NumInputs()), 0)
	if k.Memory().GCCount == 0 {
		t.Fatal("expected garbage collections during the build")
	}
}

func TestBuildParallelWithGC(t *testing.T) {
	c := C3540LikeScaled(6)
	k := core.NewKernel(core.Options{
		Levels: c.NumInputs(), Engine: core.EnginePar, Workers: 4,
		EvalThreshold: 128, GroupSize: 16, Stealing: true,
		GCMinNodes: 256, GCGrowth: 1.3,
	})
	checkBuildAgainstSim(t, k, c, identityOrder(c.NumInputs()), 64)
}

func TestBuildRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := Random(8, 60, seed)
		k := core.NewKernel(core.Options{Levels: 8, Engine: core.EnginePBF, EvalThreshold: 16, GroupSize: 4})
		checkBuildAgainstSim(t, k, c, identityOrder(8), 0)
	}
}

func TestBuildAdderEquivalence(t *testing.T) {
	// Ripple-carry and carry-lookahead adders must produce identical
	// canonical BDDs — the equivalence-checking use case from the paper's
	// introduction.
	const w = 6
	ra, cla := RippleAdder(w), CarryLookaheadAdder(w)
	k := core.NewKernel(core.Options{Levels: ra.NumInputs(), Engine: core.EnginePBF})
	lv := identityOrder(ra.NumInputs())
	r1, err := Build(k, ra, lv)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Release()
	r2, err := Build(k, cla, lv)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Release()
	refs1, refs2 := r1.Refs(), r2.Refs()
	for i := range refs1 {
		if refs1[i] != refs2[i] {
			t.Fatalf("output %d differs: equivalence check failed", i)
		}
	}
}

func TestBuildFaultDetection(t *testing.T) {
	// A single gate fault must be caught by BDD comparison, and the XOR
	// of the two versions yields a counterexample (paper §1).
	const w = 4
	good := RippleAdder(w)
	bad := RippleAdder(w)
	// Inject a fault: flip one gate type (an AND in a full adder to OR).
	for i := range bad.Gates {
		if bad.Gates[i].Type == GateAnd {
			bad.Gates[i].Type = GateOr
			break
		}
	}
	k := core.NewKernel(core.Options{Levels: good.NumInputs(), Engine: core.EnginePBF})
	lv := identityOrder(good.NumInputs())
	rg, err := Build(k, good, lv)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Build(k, bad, lv)
	if err != nil {
		t.Fatal(err)
	}
	foundDiff := false
	for i := range rg.Refs() {
		g, b := rg.Refs()[i], rb.Refs()[i]
		if g == b {
			continue
		}
		foundDiff = true
		miter := k.Apply(core.OpXor, g, b)
		cex, ok := k.AnySat(miter)
		if !ok {
			t.Fatal("differing outputs but XOR unsatisfiable")
		}
		// The counterexample must actually distinguish the circuits.
		assign := make([]bool, k.Levels())
		for lvl, v := range cex {
			assign[lvl] = v == 1
		}
		if k.Eval(g, assign) == k.Eval(b, assign) {
			t.Fatal("counterexample does not distinguish the outputs")
		}
	}
	if !foundDiff {
		t.Fatal("fault injection changed nothing")
	}
}

func TestBuildBadArguments(t *testing.T) {
	c := Parity(4)
	k := core.NewKernel(core.Options{Levels: 4, Engine: core.EngineDF})
	if _, err := Build(k, c, []int{0, 1, 2}); err == nil {
		t.Fatal("short inputLevel accepted")
	}
	if _, err := Build(k, c, []int{0, 1, 2, 2}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	small := core.NewKernel(core.Options{Levels: 2, Engine: core.EngineDF})
	if _, err := Build(small, c, []int{0, 1, 2, 3}); err == nil {
		t.Fatal("undersized kernel accepted")
	}
}

func TestBuildPinHygiene(t *testing.T) {
	c := Multiplier(3)
	k := core.NewKernel(core.Options{Levels: c.NumInputs(), Engine: core.EnginePBF})
	res, err := Build(k, c, identityOrder(c.NumInputs()))
	if err != nil {
		t.Fatal(err)
	}
	if k.NumPins() != c.NumOutputs() {
		t.Fatalf("pins after build = %d want %d (intermediates leaked)", k.NumPins(), c.NumOutputs())
	}
	res.Release()
	if k.NumPins() != 0 {
		t.Fatalf("pins after release = %d", k.NumPins())
	}
	k.GC()
	if k.NumNodes() != 0 {
		t.Fatalf("nodes after release+GC = %d", k.NumNodes())
	}
}

// TestBuildBatchedPinHygiene checks that a batched build leaves only the
// outputs pinned, at one worker (index order) and at two (FIFO).
func TestBuildBatchedPinHygiene(t *testing.T) {
	c := Multiplier(4)
	for _, workers := range []int{1, 2} {
		k := core.NewKernel(core.Options{
			Levels: c.NumInputs(), Engine: core.EnginePar, Workers: workers, Stealing: true,
		})
		res, err := Build(k, c, identityOrder(c.NumInputs()))
		if err != nil {
			t.Fatal(err)
		}
		if k.NumPins() != c.NumOutputs() {
			t.Fatalf("%d workers: pins after build = %d want %d (intermediates leaked)",
				workers, k.NumPins(), c.NumOutputs())
		}
		res.Release()
		if k.NumPins() != 0 {
			t.Fatalf("%d workers: pins after release = %d", workers, k.NumPins())
		}
		k.GC()
		if k.NumNodes() != 0 {
			t.Fatalf("%d workers: nodes after release+GC = %d", workers, k.NumNodes())
		}
	}
}

// buildSignature builds c on a fresh kernel and returns the canonical
// signature of its outputs, comparable across kernels.
func buildSignature(t *testing.T, opts core.Options, c *Circuit) []uint64 {
	t.Helper()
	opts.Levels = c.NumInputs()
	k := core.NewKernel(opts)
	res, err := Build(k, c, identityOrder(c.NumInputs()))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	return k.CanonicalSignature(res.Refs())
}

// TestBuildBatchedMatchesBuild builds each circuit in batches of 1, 2
// and 4 workers (ready sets wider and narrower than the batch) on every
// engine and requires the canonical outputs of a depth-first build.
func TestBuildBatchedMatchesBuild(t *testing.T) {
	circuits := []*Circuit{
		Multiplier(5),
		RippleAdder(6),
		Comparator(4),
		Parity(9),
		Random(8, 80, 3),
	}
	engines := []struct {
		name    string
		opts    core.Options
		workers []int
	}{
		{"df", core.Options{Engine: core.EngineDF}, []int{1}},
		{"pbf", core.Options{Engine: core.EnginePBF, EvalThreshold: 64, GroupSize: 8}, []int{1}},
		{"par", core.Options{Engine: core.EnginePar, EvalThreshold: 64, GroupSize: 8, Stealing: true}, []int{1, 2, 4}},
	}
	for _, c := range circuits {
		want := buildSignature(t, core.Options{Engine: core.EngineDF}, c)
		for _, e := range engines {
			t.Run(c.Name+"/"+e.name, func(t *testing.T) {
				for _, workers := range e.workers {
					opts := e.opts
					opts.Workers = workers
					if !slices.Equal(buildSignature(t, opts, c), want) {
						t.Fatalf("%d workers: outputs differ from the depth-first build", workers)
					}
				}
			})
		}
	}
}

// TestBuildBatchedSmallBatches builds mult-4 in batches of 1, 3 and 8
// (ready sets wider and narrower than the batch). Within one kernel a
// rebuild must return the same refs, and the outputs must match a
// depth-first build.
func TestBuildBatchedSmallBatches(t *testing.T) {
	c := Multiplier(4)
	want := buildSignature(t, core.Options{Engine: core.EngineDF}, c)
	for _, workers := range []int{1, 3, 8} {
		k := core.NewKernel(core.Options{
			Levels: c.NumInputs(), Engine: core.EnginePar, Workers: workers,
			EvalThreshold: 64, GroupSize: 8, Stealing: true,
		})
		lv := identityOrder(c.NumInputs())
		r1, err := Build(k, c, lv)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Build(k, c, lv)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r1.Refs(), r2.Refs()) {
			t.Fatalf("%d workers: rebuild %v != first build %v", workers, r2.Refs(), r1.Refs())
		}
		if !slices.Equal(k.CanonicalSignature(r1.Refs()), want) {
			t.Fatalf("%d workers: outputs differ from the depth-first build", workers)
		}
		r1.Release()
		r2.Release()
	}
}

// TestBuildBatchedSemantics simulates a 4-worker build of a scaled
// C3540-like circuit, without collections, against gate-level evaluation.
func TestBuildBatchedSemantics(t *testing.T) {
	c := C3540LikeScaled(5)
	k := core.NewKernel(core.Options{
		Levels: c.NumInputs(), Engine: core.EnginePar, Workers: 4,
		EvalThreshold: 128, GroupSize: 16, Stealing: true,
	})
	checkBuildAgainstSim(t, k, c, identityOrder(c.NumInputs()), 128)
}

// TestBuildOneWorkerReplaysGateOrder pins the counters of one-worker
// builds at the values a gate-by-gate build (one Apply per binary step,
// in gate order) produced: at one worker the index order must replay
// that operation sequence exactly, collections included.
func TestBuildOneWorkerReplaysGateOrder(t *testing.T) {
	cases := []struct {
		c                      *Circuit
		engine                 core.Engine
		steps, hits, terminals uint64
		peakBytes, collections uint64
	}{
		{Multiplier(8), core.EnginePBF, 134937, 108384, 26932, 2673664, 14},
		{Multiplier(8), core.EnginePar, 134937, 108384, 26932, 2673664, 14},
		{C2670LikeScaled(4), core.EnginePBF, 985122, 855379, 130603, 15663616, 18},
		{C2670LikeScaled(4), core.EnginePar, 985122, 855379, 130603, 15663616, 18},
	}
	for _, tc := range cases {
		k := core.NewKernel(core.Options{
			Levels: tc.c.NumInputs(), Engine: tc.engine, Workers: 1,
			EvalThreshold: 8192, GCGrowth: 1.6, GCMinNodes: 4096,
		})
		res, err := Build(k, tc.c, identityOrder(tc.c.NumInputs()))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		st, mem := k.TotalStats(), k.Memory()
		got := [5]uint64{st.Ops, st.CacheHits, st.Terminals, mem.PeakBytes, mem.GCCount}
		want := [5]uint64{tc.steps, tc.hits, tc.terminals, tc.peakBytes, tc.collections}
		if got != want {
			t.Errorf("%s/%s: steps, cache hits, terminals, peak bytes, GCs = %v, want %v",
				tc.c.Name, tc.engine, got, want)
		}
	}
}

// TestBuildReleaseGivesBackOpArenas builds mult-9, releases every output
// and collects: the operator arenas then hold at most one block per
// worker and level, not the high-water of the build's largest operation.
// (mult-8's operations fit one block per level, so it cannot tell.)
func TestBuildReleaseGivesBackOpArenas(t *testing.T) {
	const opBlockBytes = 1024 * 48 // core's opBlockSize × opNodeBytes
	c := Multiplier(9)
	for _, opts := range []core.Options{
		{Engine: core.EnginePBF},
		{Engine: core.EnginePar, Workers: 2, Stealing: true},
	} {
		opts.Levels = c.NumInputs()
		k := core.NewKernel(opts)
		res, err := Build(k, c, identityOrder(c.NumInputs()))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		k.GC()
		limit := uint64(max(opts.Workers, 1)*k.Levels()) * opBlockBytes
		if got := k.Memory().OpBytes; got > limit {
			t.Errorf("%s: operator bytes after release and GC = %d, want at most %d", opts.Engine, got, limit)
		}
	}
}

// TestBuildBatchedWithGC collects at batch boundaries in the middle of a
// 3-worker build.
func TestBuildBatchedWithGC(t *testing.T) {
	c := Multiplier(5)
	opts := core.Options{
		Engine: core.EnginePar, Workers: 3,
		EvalThreshold: 64, GroupSize: 8, Stealing: true,
		GCMinNodes: 64, GCGrowth: 1.15,
	}
	opts.Levels = c.NumInputs()
	k := core.NewKernel(opts)
	res, err := Build(k, c, identityOrder(c.NumInputs()))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if k.Memory().GCCount == 0 {
		t.Fatal("expected batch-boundary collections")
	}
	want := buildSignature(t, core.Options{Engine: core.EngineDF}, c)
	if !slices.Equal(k.CanonicalSignature(res.Refs()), want) {
		t.Fatal("outputs diverged after a GC-heavy batched build")
	}
}

func TestBuildBatchedBuffersAndConstants(t *testing.T) {
	c := New("bufconst")
	a := c.AddInput("a")
	one := c.AddGate(GateConst1, "one")
	buf := c.AddGate(GateBuf, "buf", a)
	buf2 := c.AddGate(GateBuf, "buf2", buf)
	g := c.AddGate(GateAnd, "g", buf2, one)
	c.MarkOutput(g)
	c.MarkOutput(buf) // output aliasing an input through a buffer
	k := core.NewKernel(core.Options{Levels: 1, Engine: core.EnginePar, Workers: 2})
	res, err := Build(k, c, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	refs := res.Refs()
	if refs[0] != refs[1] {
		t.Fatalf("a AND 1 (%v) should equal buffered a (%v)", refs[0], refs[1])
	}
}
