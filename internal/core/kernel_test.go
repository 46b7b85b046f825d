package core

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"bfbdd/internal/cache"
	"bfbdd/internal/node"
	"bfbdd/internal/unique"
)

// TestParseEngine round-trips every engine through String and
// ParseEngine, and rejects names no engine has.
func TestParseEngine(t *testing.T) {
	for e := EngineDF; e <= EnginePar; e++ {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
	}
	for _, name := range []string{"", "nope", "PBF", "engine(5)"} {
		if e, err := ParseEngine(name); err == nil {
			t.Errorf("ParseEngine(%q) = %v, want an error", name, e)
		}
	}
}

// TestParseGCPolicy round-trips every policy through String and
// ParseGCPolicy, and rejects names no policy has.
func TestParseGCPolicy(t *testing.T) {
	for _, p := range []GCPolicy{GCCompact, GCFreeList} {
		if got, err := ParseGCPolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseGCPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"", "nope", "Compact", "free-list"} {
		if p, err := ParseGCPolicy(name); err == nil {
			t.Errorf("ParseGCPolicy(%q) = %v, want an error", name, p)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Levels: 4}.withDefaults()
	if o.Workers != 1 {
		t.Errorf("Workers default = %d", o.Workers)
	}
	if o.EvalThreshold <= 0 || o.GroupSize <= 0 || o.CacheBits == 0 {
		t.Errorf("tuning defaults missing: %+v", o)
	}
	if o.GCGrowth <= 1 || o.GCMinNodes == 0 {
		t.Errorf("GC defaults missing: %+v", o)
	}
	// Non-parallel engines force one worker.
	o = Options{Levels: 4, Engine: EnginePBF, Workers: 8}.withDefaults()
	if o.Workers != 1 {
		t.Errorf("sequential engine kept %d workers", o.Workers)
	}
}

// TestParLocksWithOneWorker holds every unique table's lock while a
// node is created, by MkNode and by a build's reduction: a one-worker
// parallel kernel must wait for the lock (the paper's 1-processor row,
// Fig 8), and the sequential pbf engine must not take it (the "Seq" row).
func TestParLocksWithOneWorker(t *testing.T) {
	for _, eng := range []Engine{EnginePBF, EnginePar} {
		for _, site := range []string{"MkNode", "Apply"} {
			k := NewKernel(Options{Levels: 4, Engine: eng, Workers: 1})
			x, y := k.VarRef(2), k.VarRef(3)
			for l := 0; l < k.Levels(); l++ {
				k.Table(l).Lock()
			}
			done := make(chan node.Ref)
			go func() {
				if site == "MkNode" {
					done <- k.MkNode(1, x, y)
				} else {
					done <- k.Apply(OpAnd, x, y)
				}
			}()
			if eng == EnginePBF {
				<-done // a hang here means pbf took a table lock
			} else {
				// Wait until the goroutine is parked on a table lock;
				// finishing first means it created the node without one.
				buf := make([]byte, 1<<20)
				for !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "unique.(*Table).Lock") {
					select {
					case <-done:
						t.Fatalf("par %s created a node without the table lock", site)
					default:
						runtime.Gosched()
					}
				}
			}
			for l := 0; l < k.Levels(); l++ {
				k.Table(l).Unlock()
			}
			if eng == EnginePar {
				<-done
			}
			k.Close()
		}
	}
}

func TestEngineAndPolicyStrings(t *testing.T) {
	names := map[Engine]string{
		EngineDF: "df", EngineBF: "bf", EngineHybrid: "hybrid",
		EnginePBF: "pbf", EnginePar: "par",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q want %q", e, e.String(), want)
		}
	}
	if GCCompact.String() != "compact" || GCFreeList.String() != "freelist" {
		t.Error("GC policy names wrong")
	}
	if OpAnd.String() != "and" || OpImp.String() != "imp" {
		t.Error("op names wrong")
	}
	if !OpAnd.Commutative() || OpImp.Commutative() {
		t.Error("commutativity flags wrong")
	}
}

func TestKernelAccessors(t *testing.T) {
	k := NewKernel(Options{Levels: 5, Engine: EnginePBF})
	if k.Levels() != 5 {
		t.Fatalf("Levels = %d", k.Levels())
	}
	if k.Store() == nil || k.Table(0) == nil {
		t.Fatal("nil substrates")
	}
	if k.Options().Engine != EnginePBF {
		t.Fatal("Options not surfaced")
	}
	x := k.VarRef(2)
	if x.Level() != 2 {
		t.Fatalf("VarRef level = %d", x.Level())
	}
	if k.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", k.NumNodes())
	}
	if k.NumPins() != 0 {
		t.Fatalf("NumPins = %d", k.NumPins())
	}
	p := k.Pin(x)
	if k.NumPins() != 1 || p.Ref() != x {
		t.Fatal("pin accounting wrong")
	}
	k.Unpin(p)
	if k.NumPins() != 0 {
		t.Fatal("unpin accounting wrong")
	}
}

// TestKernelTotalsMatchPerLevel checks the totals a build report reads
// without walking the levels against the per-level figures they stand
// for: NumNodes against the arenas' live counts across parallel builds
// and collections under both policies, and the workers' lock wait
// against the tables' own, with a level's table held while a build and
// a variable creation wait for it.
func TestKernelTotalsMatchPerLevel(t *testing.T) {
	for _, gc := range []GCPolicy{GCCompact, GCFreeList} {
		k := NewKernel(Options{Levels: 10, Engine: EnginePar, Workers: 2, GC: gc})
		acc := node.Zero
		for v := 0; v < 10; v++ {
			acc = k.Apply(OpXor, acc, k.Apply(OpAnd, k.VarRef(v), k.VarRef((v+3)%10)))
			if k.NumNodes() != k.Store().NumNodes() {
				t.Fatalf("%v: NumNodes %d, arenas hold %d after build %d", gc, k.NumNodes(), k.Store().NumNodes(), v)
			}
		}
		p := k.Pin(acc)
		k.GC()
		if k.NumNodes() != k.Store().NumNodes() {
			t.Fatalf("%v: NumNodes %d, arenas hold %d after GC", gc, k.NumNodes(), k.Store().NumNodes())
		}
		k.Unpin(p)
	}

	k := NewKernel(Options{Levels: 4, Engine: EnginePar, Workers: 2})
	x := []node.Ref{k.VarRef(0), k.VarRef(1), k.VarRef(2), k.VarRef(3)}
	tableWait := func() (sum time.Duration) {
		for l := 0; l < k.Levels(); l++ {
			sum += k.Table(l).LockWait()
		}
		return sum
	}
	workerWait := func() time.Duration { return time.Duration(k.TotalStats().LockWaitNs) }
	// Each case reaches level 0's table while the test holds it: a build
	// (charged in reducePass) and MkNode (charged in mkNode). A case
	// retries, with operands the compute cache has not seen, until its
	// goroutine reached the lock before the holder let go.
	for name, reach := range map[string]func(i int){
		"build":  func(i int) { k.Apply([]Op{OpAnd, OpOr, OpXor}[i%3], x[0], x[1+i/3]) },
		"mkNode": func(i int) { k.MkNode(0, x[1], x[2+i%2]) },
	} {
		before := workerWait()
		for i := 0; i < 9 && workerWait() == before; i++ {
			k.Table(0).Lock()
			done := make(chan struct{})
			go func() {
				reach(i)
				close(done)
			}()
			time.Sleep(time.Millisecond)
			k.Table(0).Unlock()
			<-done
		}
		if workerWait() == before || workerWait() != tableWait() {
			t.Fatalf("%s: workers' lock wait %v (was %v), tables' %v", name, workerWait(), before, tableWait())
		}
	}
	k.ResetStats()
	if workerWait() != 0 || tableWait() != 0 {
		t.Fatal("lock wait survives ResetStats")
	}
}

func TestMemorySampling(t *testing.T) {
	k := NewKernel(Options{Levels: 8, Engine: EnginePBF})
	f := node.One
	for v := 0; v < 8; v++ {
		f = k.Apply(OpAnd, f, k.VarRef(v))
	}
	mem := k.Memory()
	if mem.PeakBytes == 0 || mem.NodeBytes == 0 {
		t.Fatalf("memory accounting empty: %+v", *mem)
	}
	if mem.Total() > mem.PeakBytes {
		t.Fatal("peak below current total")
	}
}

// The memory accounting counts opNodeBytes per operator node. The guard
// pins the layout: a field added to opNode (or padding from reordered
// ones) grows every operator arena block and every Fig 9 op-node figure,
// so it must be a deliberate edit here.
func TestOpNodeBytesIsOpNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(opNode{}); got != 48 || opNodeBytes != 48 {
		t.Fatalf("unsafe.Sizeof(opNode{}) = %d, opNodeBytes = %d, want 48", got, opNodeBytes)
	}
}

// TestHotStructSizes pins the compute cache at one 64-byte cache line
// and the unique table at 80 bytes. On a 2-vCPU host, 2-worker mult-11
// builds with a 72-byte Cache read p50 +18%, slower in 8 of 8 alternating
// pairs, and with an 88-byte Table +9%, slower in 5 of 6; that is why the
// kernel, not the table, counts the tables' bytes.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(cache.Cache{}); got != 64 {
		t.Errorf("unsafe.Sizeof(cache.Cache{}) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(unique.Table{}); got != 80 {
		t.Errorf("unsafe.Sizeof(unique.Table{}) = %d, want 80", got)
	}
}

func TestMemoryTableBytesExact(t *testing.T) {
	for _, eng := range []Engine{EnginePBF, EnginePar} {
		k := NewKernel(Options{Levels: 10, Engine: eng, Workers: 2})
		f := node.Zero
		for v := 0; v+1 < 10; v += 2 {
			f = k.Apply(OpOr, f, k.Apply(OpAnd, k.VarRef(v), k.VarRef(v+1)))
		}
		var want uint64
		for lvl := 0; lvl < k.Levels(); lvl++ {
			want += k.Table(lvl).Bytes()
		}
		if got := k.Memory().TableBytes; got != want || want == 0 {
			t.Fatalf("%v: Memory().TableBytes = %d, want the tables' %d", eng, got, want)
		}
		k.Close()
	}
}

func TestApplyPanicsOnBadInput(t *testing.T) {
	k := NewKernel(Options{Levels: 2, Engine: EngineDF})
	for name, fn := range map[string]func(){
		"non-binary op":   func() { k.Apply(opExists, node.Zero, node.One) },
		"invalid operand": func() { k.Apply(OpAnd, node.Nil, node.One) },
		"bad mknode lvl":  func() { k.MkNode(9, node.Zero, node.One) },
		"bad mknode ref":  func() { k.MkNode(0, node.Nil, node.One) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewKernelPanicsOnBadLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKernel with negative levels did not panic")
		}
	}()
	NewKernel(Options{Levels: -1})
}
