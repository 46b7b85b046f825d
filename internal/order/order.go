// Package order computes variable orderings for circuit inputs. The
// paper's experiments use the order produced by order_dfs in SIS; DFS here
// implements that heuristic (depth-first traversal of the output cones,
// variables ordered by first visit). BDD sizes are extremely sensitive to
// this choice, so alternative orders are provided for comparison.
package order

import (
	"fmt"
	"math/rand"
	"strings"

	"bfbdd/internal/netlist"
)

// Method selects an ordering heuristic.
type Method int

// The available ordering methods.
const (
	// DFS is the SIS order_dfs heuristic: depth-first traversal of the
	// fanin cones from the primary outputs (outputs in declaration order,
	// fanins in gate order); inputs are ordered by first visit.
	DFS Method = iota
	// Identity keeps the declaration order of the inputs.
	Identity
	// Interleave groups inputs by their alphabetic name prefix (e.g. the
	// a… and b… operand words of an arithmetic circuit) and interleaves
	// the groups bit by bit — the classic good order for adders and
	// comparators.
	Interleave
	// Reverse reverses the declaration order.
	Reverse
	// Shuffle is a seeded random permutation (worst-case baseline).
	Shuffle
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case DFS:
		return "dfs"
	case Identity:
		return "identity"
	case Interleave:
		return "interleave"
	case Reverse:
		return "reverse"
	case Shuffle:
		return "shuffle"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod returns the method whose String is name.
func ParseMethod(name string) (Method, error) {
	for m := DFS; m <= Shuffle; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown order %q", name)
}

// Compute returns inputLevel: for each primary input (by position in
// c.Inputs), the BDD variable level it is assigned. The result is always
// a permutation of [0, NumInputs).
func Compute(c *netlist.Circuit, m Method, seed int64) []int {
	n := len(c.Inputs)
	levels := make([]int, n)
	switch m {
	case Identity:
		for i := range levels {
			levels[i] = i
		}
	case Reverse:
		for i := range levels {
			levels[i] = n - 1 - i
		}
	case Shuffle:
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		copy(levels, perm)
	case Interleave:
		return interleave(c)
	case DFS:
		return dfs(c)
	default:
		panic("order: unknown method " + m.String())
	}
	return levels
}

// dfs assigns levels by first visit in a depth-first traversal from the
// outputs.
func dfs(c *netlist.Circuit) []int {
	inputPos := make(map[int]int, len(c.Inputs)) // gate index -> input position
	for pos, gi := range c.Inputs {
		inputPos[gi] = pos
	}
	levels := make([]int, len(c.Inputs))
	for i := range levels {
		levels[i] = -1
	}
	next := 0
	visited := make([]bool, len(c.Gates))
	// Iterative DFS preserving fanin order (stack of frames).
	var visit func(gi int)
	visit = func(gi int) {
		if visited[gi] {
			return
		}
		visited[gi] = true
		g := &c.Gates[gi]
		if g.Type == netlist.GateInput {
			levels[inputPos[gi]] = next
			next++
			return
		}
		for _, f := range g.Fanin {
			visit(f)
		}
	}
	for _, o := range c.Outputs {
		visit(o)
	}
	// Inputs not in any output cone get the remaining levels.
	for pos := range levels {
		if levels[pos] == -1 {
			levels[pos] = next
			next++
		}
	}
	return levels
}

// interleave orders inputs round-robin across name-prefix groups.
func interleave(c *netlist.Circuit) []int {
	type group struct {
		prefix    string
		positions []int
	}
	var groups []group
	index := make(map[string]int)
	for pos, gi := range c.Inputs {
		p := prefixOf(c.Gates[gi].Name)
		g, ok := index[p]
		if !ok {
			g = len(groups)
			index[p] = g
			groups = append(groups, group{prefix: p})
		}
		groups[g].positions = append(groups[g].positions, pos)
	}
	levels := make([]int, len(c.Inputs))
	next := 0
	for i := 0; ; i++ {
		advanced := false
		for _, g := range groups {
			if i < len(g.positions) {
				levels[g.positions[i]] = next
				next++
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	return levels
}

// prefixOf strips a trailing decimal index from an input name.
func prefixOf(name string) string {
	return strings.TrimRight(name, "0123456789")
}
