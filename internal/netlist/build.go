package netlist

import (
	"fmt"

	"bfbdd/internal/core"
	"bfbdd/internal/node"
)

// BuildResult holds the symbolic evaluation of a circuit: one pinned BDD
// per primary output, in Outputs order. Callers must Release the result
// (or keep it) to control the pins' lifetime.
type BuildResult struct {
	kernel  *core.Kernel
	Outputs []*core.Pin
}

// Refs returns the current output refs (valid until the next operation
// that may garbage collect).
func (r *BuildResult) Refs() []node.Ref {
	refs := make([]node.Ref, len(r.Outputs))
	for i, p := range r.Outputs {
		refs[i] = p.Ref()
	}
	return refs
}

// Release unpins all outputs.
func (r *BuildResult) Release() {
	for _, p := range r.Outputs {
		r.kernel.Unpin(p)
	}
	r.Outputs = nil
}

// buildSrc identifies a build operand: a unit of the graph, or a
// terminal constant. Unit results are pinned, so they stay valid across
// the garbage collections that run at batch boundaries.
type buildSrc struct {
	unit int      // ≥ 0: index into the unit graph
	ref  node.Ref // otherwise: a terminal constant (never relocated)
}

// buildUnit is one node of the decomposed gate graph: a primary input,
// built and pinned from the start, or one binary operation.
type buildUnit struct {
	op      core.Op
	a, b    buildSrc
	deps    int   // unresolved operand units
	waiters []int // units whose deps include this one
	frees   []int // units this one stops using once built
	uses    int   // frees entries and output declarations naming this unit
	pin     *core.Pin
}

// Build symbolically evaluates the circuit, producing a BDD for every
// primary output. inputLevel maps each primary input (by position in
// c.Inputs) to its BDD variable level, typically computed by
// internal/order; it must be a permutation of [0, NumInputs).
//
// Build decomposes every gate into binary operation units (an n-ary gate
// folds left to right; NOT and the inverting gates end in XNOR with Zero,
// which is Kernel.Not) and issues the ready units through
// Kernel.ApplyBatch in batches of the kernel's worker count. This is the
// paper's operating mode: users queue a set of top-level operations, the
// parallel workers construct them cooperatively (each seeding its share,
// stealing the rest), and the garbage-collection condition is checked at
// batch boundaries (§4.1). Intermediate results are pinned only while
// units still reference them, so those collections reclaim dead
// subgraphs mid-build.
func Build(k *core.Kernel, c *Circuit, inputLevel []int) (*BuildResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(inputLevel) != len(c.Inputs) {
		return nil, fmt.Errorf("netlist: inputLevel has %d entries, circuit has %d inputs",
			len(inputLevel), len(c.Inputs))
	}
	if k.Levels() < len(c.Inputs) {
		return nil, fmt.Errorf("netlist: kernel has %d levels, circuit needs %d",
			k.Levels(), len(c.Inputs))
	}
	seen := make([]bool, len(inputLevel))
	for _, l := range inputLevel {
		if l < 0 || l >= len(inputLevel) || seen[l] {
			return nil, fmt.Errorf("netlist: inputLevel is not a permutation")
		}
		seen[l] = true
	}
	P := max(k.Options().Workers, 1)

	// Decompose gates into the unit graph: the inputs first, then each
	// gate's fold, left to right.
	units := make([]buildUnit, 0, len(c.Inputs)+len(c.Gates))
	gateSrc := make([]buildSrc, len(c.Gates))
	for pos, in := range c.Inputs {
		units = append(units, buildUnit{pin: k.Pin(k.VarRef(inputLevel[pos]))})
		gateSrc[in] = buildSrc{unit: pos}
	}
	inputs := len(units)
	addUnit := func(op core.Op, a, b buildSrc) buildSrc {
		units = append(units, buildUnit{op: op, a: a, b: b})
		return buildSrc{unit: len(units) - 1}
	}
	zero := buildSrc{unit: -1, ref: node.Zero}
	for gi, g := range c.Gates {
		first := len(units)
		switch g.Type {
		case GateInput:
			// handled above
		case GateConst0:
			gateSrc[gi] = zero
		case GateConst1:
			gateSrc[gi] = buildSrc{unit: -1, ref: node.One}
		case GateBuf:
			gateSrc[gi] = gateSrc[g.Fanin[0]]
		case GateNot:
			gateSrc[gi] = addUnit(core.OpXnor, gateSrc[g.Fanin[0]], zero)
		default:
			op, invert := gateOp(g.Type)
			acc := gateSrc[g.Fanin[0]]
			for _, f := range g.Fanin[1:] {
				acc = addUnit(op, acc, gateSrc[f])
			}
			if invert {
				// n-ary NAND/NOR/XNOR are the complement of the n-ary
				// AND/OR/XOR fold (inverting pairwise would be wrong).
				acc = addUnit(core.OpXnor, acc, zero)
			}
			gateSrc[gi] = acc
		}
		if len(units) == first {
			continue
		}
		// Each step of the fold consumes the one before it, and the
		// gate's fanins stay pinned until its last step is built.
		for u := first + 1; u < len(units); u++ {
			units[u].frees = append(units[u].frees, u-1)
		}
		last := &units[len(units)-1]
		for _, f := range g.Fanin {
			if s := gateSrc[f]; s.unit >= 0 {
				last.frees = append(last.frees, s.unit)
			}
		}
	}

	// Dependency and consumer accounting (pure functions of the graph).
	for i := inputs; i < len(units); i++ {
		for _, s := range [2]buildSrc{units[i].a, units[i].b} {
			if s.unit >= inputs {
				units[s.unit].waiters = append(units[s.unit].waiters, i)
				units[i].deps++
			}
		}
		for _, f := range units[i].frees {
			units[f].uses++
		}
	}
	for _, o := range c.Outputs {
		if s := gateSrc[o]; s.unit >= 0 {
			units[s.unit].uses++
		}
	}

	// The ready order follows the worker count, because no one order
	// keeps the peak low at both. At one worker the units go in index
	// order, which is gate order: each unit depends only on lower-numbered
	// ones, so the queue holds them all from the start and the build
	// replays the gate-by-gate operation sequence exactly; FIFO there
	// peaked 20% higher on mult-11. At P ≥ 2 the P oldest ready units go
	// together (FIFO); lowest-index batches of 2 peaked about 8% higher
	// on mult-11. The batch is P because each operation in flight holds
	// its own operator nodes: batches of 4 and 16 on 2 workers peaked
	// 20–25% above batches of 2. That bound was measured at 2 workers
	// only; at 4 and 8 workers batches of P peak 25–50% above the
	// gate-by-gate build (DESIGN.md row 15).
	ready := make([]int, 0, len(units)-inputs)
	for i := inputs; i < len(units); i++ {
		if P == 1 || units[i].deps == 0 {
			ready = append(ready, i)
		}
	}

	resolve := func(s buildSrc) node.Ref {
		if s.unit >= 0 {
			return units[s.unit].pin.Ref()
		}
		return s.ref
	}
	release := func(i int) {
		u := &units[i]
		u.uses--
		if u.uses == 0 && u.pin != nil {
			k.Unpin(u.pin)
			u.pin = nil
		}
	}

	completed := 0
	ops := make([]core.BinOp, 0, P)
	for len(ready) > 0 {
		batch := ready[:min(len(ready), P)]
		ops = ops[:0]
		for _, id := range batch {
			u := &units[id]
			if u.deps != 0 {
				return nil, fmt.Errorf("netlist: internal scheduling error: unit %d issued before its operands", id)
			}
			ops = append(ops, core.BinOp{Op: u.op, F: resolve(u.a), G: resolve(u.b)})
		}
		results := k.ApplyBatch(ops)

		// Every unit enters ready once, so appends never outgrow its
		// capacity and never overwrite the batch they follow.
		ready = ready[len(batch):]
		for bi, id := range batch {
			u := &units[id]
			u.pin = k.Pin(results[bi])
			completed++
			for _, f := range u.frees {
				release(f)
			}
			for _, wid := range u.waiters {
				units[wid].deps--
				if units[wid].deps == 0 && P > 1 {
					ready = append(ready, wid)
				}
			}
		}
	}
	if completed != len(units)-inputs {
		return nil, fmt.Errorf("netlist: internal scheduling error: %d of %d units built",
			completed, len(units)-inputs)
	}

	// Pin each output declaration (an output may also feed gates or be
	// listed twice), then drop every build-time pin.
	res := &BuildResult{kernel: k}
	for _, o := range c.Outputs {
		res.Outputs = append(res.Outputs, k.Pin(resolve(gateSrc[o])))
	}
	for i := range units {
		if units[i].pin != nil {
			k.Unpin(units[i].pin)
		}
	}
	return res, nil
}

// gateOp maps an n-ary gate type to its fold operation plus a final
// inversion flag.
func gateOp(t GateType) (core.Op, bool) {
	switch t {
	case GateAnd:
		return core.OpAnd, false
	case GateOr:
		return core.OpOr, false
	case GateNand:
		return core.OpAnd, true
	case GateNor:
		return core.OpOr, true
	case GateXor:
		return core.OpXor, false
	case GateXnor:
		return core.OpXor, true
	}
	panic("netlist: gateOp on " + t.String())
}
