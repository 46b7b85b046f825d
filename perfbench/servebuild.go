package main

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/netlist"
)

// serveBuildMult10 builds the multiplier through the served stack, the
// paper's batch usage mode (§4.1) as clients reach it: two closed-loop
// clients share one 2-worker session and take gates from one queue in
// depth order, ties broken by the seed. A gate is one dependent request
// (/vars, /const, /apply or /not), so concurrent gates meet in the
// coalescer and run as one engine batch. Dead gates are freed as the
// library build frees them. After each build every output's signature
// is checked against a library build of the same circuit, made before
// set-up, and the session is deleted. Set-up starts the server; it takes
// milliseconds, so it is repeated as often as serve-apply-1c's.
func serveBuildMult10(r *run) error {
	c, err := loadCircuit(r.cfg.serveCircuit)
	if err != nil {
		return err
	}
	m, outs, err := libraryBuild(c)
	if err != nil {
		return err
	}
	want := make([]string, len(outs))
	for i, b := range outs {
		want[i] = signature(m, b)
	}
	m.Close()
	st, err := setUp(r, 5*r.cfg.setups, r.startStack)
	if err != nil {
		return err
	}
	defer st.close()
	c1, c2 := st.c1, st.c2

	depth := gateDepths(c.Circuit)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	batches0, ops0, err := c1.coalescerCounts()
	if err != nil {
		return err
	}
	runtime.GC()
	gw := watchGo()
	var (
		plain, traced []float64
		repSecs, peak []float64
		total         sessionStats
		parts         applyParts
		busy          time.Duration
		done          int64
	)
	// Traced runs alternate untraced and traced builds, starting untraced.
	minReps := 1
	if r.cfg.trace {
		minReps = 2
	}
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < r.cfg.window; rep++ {
		tr := r.cfg.trace && rep%2 == 1
		queue := gateQueue(depth, rng)
		done0 := r.completed()
		t0 := time.Now()
		b, err := newServedBuild(c, queue, c1, tr)
		if err != nil {
			return err
		}
		lat := b.run(c1, c2, &parts)
		b.check(c1, want)
		engine, err := c1.stats(b.sid)
		if err != nil {
			return err
		}
		if _, _, err := c1.call("DELETE", "/v1/sessions/"+b.sid, nil, nil); err != nil {
			return err
		}
		d := time.Since(t0)
		busy += d
		done += r.completed() - done0
		repSecs = append(repSecs, d.Seconds())
		peak = append(peak, engine.PeakBytes/(1<<20))
		total.add(engine, 1)
		if tr {
			traced = append(traced, lat...)
		} else {
			plain = append(plain, lat...)
		}
	}
	gw.finish(r)
	batches1, ops1, err := c1.coalescerCounts()
	if err != nil {
		return err
	}
	r.reportLatency("gate request", plain)
	r.detail("served %s builds: n=%d median %.3fs", r.cfg.serveCircuit, len(repSecs), median(repSecs))
	r.set("throughput_per_s", float64(done)/busy.Seconds())
	r.set("peak_mb", median(peak))
	if r.cfg.trace {
		r.setCore(total, float64(len(repSecs)))
		r.set("server.batch_ops", (ops1-ops0)/(batches1-batches0))
		parts.report(r, plain, traced)
	}
	return nil
}

// gateDepths returns each gate's logic depth; inputs and constants are 0.
func gateDepths(c *netlist.Circuit) []int {
	depth := make([]int, len(c.Gates))
	for gi, g := range c.Gates {
		for _, f := range g.Fanin {
			depth[gi] = max(depth[gi], depth[f]+1)
		}
	}
	return depth
}

// gateQueue orders the gates by depth, breaking ties at random.
func gateQueue(depth []int, rng *rand.Rand) []int {
	key := rng.Perm(len(depth))
	q := make([]int, len(depth))
	for i := range q {
		q[i] = i
	}
	slices.SortFunc(q, func(a, b int) int {
		return cmp.Or(cmp.Compare(depth[a], depth[b]), cmp.Compare(key[a], key[b]))
	})
	return q
}

// servedBuild is one build of a circuit in a fresh session.
type servedBuild struct {
	c      *circuit
	inputs map[int]int
	queue  []int
	sid    string
	traced bool

	next   atomic.Int64
	handle []uint64        // gate -> handle, written before done[gate] closes
	done   []chan struct{} // closed when the gate's handle is ready
	abort  chan struct{}   // closed when a request fails
	once   sync.Once

	mu     sync.Mutex
	fanout []int // readers not yet built, per gate
}

func newServedBuild(c *circuit, queue []int, cn *conn, traced bool) (*servedBuild, error) {
	var info struct {
		Session string `json:"session"`
	}
	if _, _, err := cn.call("POST", "/v1/sessions",
		map[string]any{"vars": c.NumInputs(), "engine": "par", "workers": 2}, &info); err != nil {
		return nil, err
	}
	b := &servedBuild{
		c: c, inputs: c.inputs(func(pos int) int { return c.levels[pos] }), queue: queue, sid: info.Session, traced: traced,
		handle: make([]uint64, len(c.Gates)),
		done:   make([]chan struct{}, len(c.Gates)),
		abort:  make(chan struct{}),
		fanout: c.FanoutCounts(),
	}
	for i := range b.done {
		b.done[i] = make(chan struct{})
	}
	return b, nil
}

// fail abandons the build: gates waiting on fanins stop waiting.
func (b *servedBuild) fail() { b.once.Do(func() { close(b.abort) }) }

// run builds every gate with one client per connection and returns the
// latencies of the gate requests, in ms.
func (b *servedBuild) run(c1, c2 *conn, parts *applyParts) []float64 {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		lat []float64
	)
	for _, cn := range []*conn{c1, c2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			var split applyParts
			for {
				k := int(b.next.Add(1)) - 1
				if k >= len(b.queue) {
					break
				}
				if !b.gate(cn, b.queue[k], &mine, &split) {
					break
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			parts.merge(&split)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat
}

// gate builds one gate once its fanins are ready, then frees what no
// longer has readers. It reports false when the build was abandoned.
func (b *servedBuild) gate(cn *conn, gi int, lat *[]float64, parts *applyParts) bool {
	g := b.c.Gates[gi]
	for _, f := range g.Fanin {
		select {
		case <-b.done[f]:
		case <-b.abort:
			return false
		}
	}
	path := "/v1/sessions/" + b.sid
	query := ""
	if b.traced {
		query = "?trace=1"
	}
	var dead []uint64
	request := func(route string, body any) (uint64, bool) {
		var res struct {
			Handle uint64 `json:"handle"`
		}
		d, tid, err := cn.call("POST", path+route+query, body, &res)
		if err != nil {
			*lat = append(*lat, math.Inf(1))
			b.fail()
			return 0, false
		}
		*lat = append(*lat, ms(d))
		if tid != "" {
			if ex, err := cn.fetchTrace(tid); err == nil {
				parts.add(ex, ms(d))
			}
		}
		return res.Handle, true
	}
	var (
		h  uint64
		ok bool
	)
	switch g.Type {
	case netlist.GateInput:
		h, ok = request("/vars", map[string]int{"index": b.inputs[gi]})
	case netlist.GateConst0, netlist.GateConst1:
		h, ok = request("/const", map[string]bool{"value": g.Type == netlist.GateConst1})
	case netlist.GateNot:
		h, ok = request("/not", map[string]uint64{"f": b.handle[g.Fanin[0]]})
	case netlist.GateBuf:
		f := b.handle[g.Fanin[0]]
		h, ok = request("/apply", map[string]any{"op": "or", "f": f, "g": f})
	default:
		ops, err := foldOps(g)
		if err != nil {
			cn.r.attempt(err)
			b.fail()
			return false
		}
		h, ok = b.handle[g.Fanin[0]], true
		for i, f := range g.Fanin[1:] {
			acc := h
			if h, ok = request("/apply", map[string]any{"op": ops[i], "f": acc, "g": b.handle[f]}); !ok {
				break
			}
			if i > 0 {
				dead = append(dead, acc)
			}
		}
	}
	if !ok {
		return false
	}
	b.handle[gi] = h
	close(b.done[gi])
	b.mu.Lock()
	for _, f := range g.Fanin {
		if b.fanout[f]--; b.fanout[f] == 0 {
			dead = append(dead, b.handle[f])
		}
	}
	b.mu.Unlock()
	if len(dead) > 0 {
		if _, _, err := cn.call("POST", path+"/free", map[string][]uint64{"handles": dead}, nil); err != nil {
			b.fail()
			return false
		}
	}
	return true
}

// check compares every output's signature with the library build's.
func (b *servedBuild) check(cn *conn, want []string) {
	select {
	case <-b.abort:
		return // already counted as failed; there is nothing to check
	default:
	}
	for i, o := range b.c.Outputs {
		var res struct {
			Signature string `json:"signature"`
		}
		if _, _, err := cn.call("POST", "/v1/sessions/"+b.sid+"/query",
			map[string]any{"kind": "signature", "f": b.handle[o]}, &res); err != nil {
			continue
		}
		if res.Signature != want[i] {
			cn.r.wrong("output %d of the served %s has signature %s, library build %s",
				i, b.c.Name, res.Signature, want[i])
		}
	}
}

// merge appends o's samples.
func (p *applyParts) merge(o *applyParts) {
	p.http = append(p.http, o.http...)
	p.queue = append(p.queue, o.queue...)
	p.batch = append(p.batch, o.batch...)
	p.kernel = append(p.kernel, o.kernel...)
	p.wal = append(p.wal, o.wal...)
	p.client = append(p.client, o.client...)
}
