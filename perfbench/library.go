package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"bfbdd"
	"bfbdd/internal/harness"
	"bfbdd/internal/netlist"
	"bfbdd/internal/node"
	"bfbdd/internal/order"
)

// circuit is an evaluation circuit with the DFS order's level for the
// input at each position.
type circuit struct {
	*netlist.Circuit
	levels []int
}

func loadCircuit(name string) (*circuit, error) {
	c, err := harness.MakeCircuit(name)
	if err != nil {
		return nil, err
	}
	return &circuit{Circuit: c, levels: order.Compute(c, order.DFS, 0)}, nil
}

// inputs maps each input gate to f(its position).
func (c *circuit) inputs(f func(pos int) int) map[int]int {
	m := make(map[int]int, len(c.Inputs))
	for pos, gi := range c.Inputs {
		m[gi] = f(pos)
	}
	return m
}

// libraryBuild builds every output through the public Manager API, one
// gate at a time, freeing each gate once its last reader is built, with
// input p as variable p under the DFS order (as the compiled-eval
// benchmarks build it). It is the reference the served workloads check
// against. Served sessions keep the identity order, so they name input p
// by its level instead; the diagrams are then the same level by level,
// which is what the signature compares.
func libraryBuild(c *circuit) (*bfbdd.Manager, []*bfbdd.BDD, error) {
	m := bfbdd.New(c.NumInputs())
	m.SetOrder(c.levels)
	inputs := c.inputs(func(pos int) int { return pos })
	fanout := c.FanoutCounts() // counts outputs too, so outputs stay
	gate := make([]*bfbdd.BDD, len(c.Gates))
	for gi, g := range c.Gates {
		b, err := gateBDD(m, g, gate, inputs[gi])
		if err != nil {
			m.Close()
			return nil, nil, err
		}
		gate[gi] = b
		for _, f := range g.Fanin {
			if fanout[f]--; fanout[f] == 0 {
				gate[f].Free()
			}
		}
	}
	outs := make([]*bfbdd.BDD, len(c.Outputs))
	for i, o := range c.Outputs {
		outs[i] = gate[o]
	}
	return m, outs, nil
}

// gateBDD evaluates one gate from its built fanins.
func gateBDD(m *bfbdd.Manager, g netlist.Gate, gate []*bfbdd.BDD, v int) (*bfbdd.BDD, error) {
	switch g.Type {
	case netlist.GateInput:
		return m.Var(v), nil
	case netlist.GateConst0:
		return m.Zero(), nil
	case netlist.GateConst1:
		return m.One(), nil
	case netlist.GateNot:
		return gate[g.Fanin[0]].Not(), nil
	case netlist.GateBuf:
		b := gate[g.Fanin[0]]
		return b.Or(b), nil
	}
	ops, err := foldOps(g)
	if err != nil {
		return nil, err
	}
	acc := gate[g.Fanin[0]]
	for i, f := range g.Fanin[1:] {
		next := applyOp(ops[i], acc, gate[f])
		if i > 0 {
			acc.Free()
		}
		acc = next
	}
	return acc, nil
}

// foldOps returns the binary operations that fold a gate's fanins left to
// right: the gate's base operation at every step, except that the last
// step of an inverting gate uses the inverted one (NAND(a,b,c) is
// nand(and(a,b),c)).
func foldOps(g netlist.Gate) ([]string, error) {
	base, last := "", ""
	switch g.Type {
	case netlist.GateAnd:
		base, last = "and", "and"
	case netlist.GateNand:
		base, last = "and", "nand"
	case netlist.GateOr:
		base, last = "or", "or"
	case netlist.GateNor:
		base, last = "or", "nor"
	case netlist.GateXor:
		base, last = "xor", "xor"
	case netlist.GateXnor:
		base, last = "xor", "xnor"
	default:
		return nil, fmt.Errorf("gate type %v has no binary fold", g.Type)
	}
	if len(g.Fanin) < 2 {
		return nil, fmt.Errorf("%v gate with %d fanins", g.Type, len(g.Fanin))
	}
	ops := make([]string, len(g.Fanin)-1)
	for i := range ops {
		ops[i] = base
	}
	ops[len(ops)-1] = last
	return ops, nil
}

func applyOp(op string, f, g *bfbdd.BDD) *bfbdd.BDD {
	switch op {
	case "and":
		return f.And(g)
	case "nand":
		return f.Nand(g)
	case "or":
		return f.Or(g)
	case "nor":
		return f.Nor(g)
	case "xor":
		return f.Xor(g)
	default:
		return f.Xnor(g)
	}
}

// signature is the server's "signature" query computed on a library
// BDD: the kernel's canonical signature hashed with FNV-1a over
// little-endian words.
func signature(m *bfbdd.Manager, b *bfbdd.BDD) string {
	h := fnv.New64a()
	var word [8]byte
	for _, v := range m.Kernel().CanonicalSignature([]node.Ref{b.Ref()}) {
		binary.LittleEndian.PutUint64(word[:], v)
		_, _ = h.Write(word[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
