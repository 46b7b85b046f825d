package compiled

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"bfbdd/internal/levelfmt"
)

// TestLoadHostile runs the codec's hostile-input table for this format
// (written by the levelfmt tests) through Load, which must keep every
// typed error visible through its wrapping.
func TestLoadHostile(t *testing.T) {
	b, err := os.ReadFile("../levelfmt/testdata/hostile-" + Magic + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var vectors []struct {
		Name, Want string
		Data       []byte
	}
	if err := json.Unmarshal(b, &vectors); err != nil {
		t.Fatal(err)
	}
	for _, v := range vectors {
		t.Run(v.Name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(v.Data))
			if v.Want == "" {
				if err != nil {
					t.Fatalf("valid stream rejected: %v", err)
				}
				return
			}
			for _, te := range []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrCorrupt, ErrTooLarge} {
				if errors.Is(err, te) && te.Error() == v.Want {
					return
				}
			}
			t.Fatalf("error %v, want %q", err, v.Want)
		})
	}
}

// TestLoadUnreducedStillTerminates loads a structurally valid but
// non-canonical artifact (a node whose children are both Zero) and
// checks every query stays exact and terminates.
func TestLoadUnreducedStillTerminates(t *testing.T) {
	var buf bytes.Buffer
	enc, err := format.NewEncoder(&buf, []int{0, 1}, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	enc.Node(0, 1, 1)                         // node 0 at level 0: both children node 1
	enc.Node(1, levelfmt.Zero, levelfmt.Zero) // node 1 at level 1: both children Zero
	if err := enc.Finish([]levelfmt.Root{{ID: 3, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	f, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for mask := 0; mask < 4; mask++ {
		a := []bool{mask&1 == 1, mask&2 == 2}
		if f.Eval(0, a) {
			t.Fatalf("unreduced zero function evaluated true at %v", a)
		}
	}
	if got := f.EvalBatch(0, [][]bool{{false, false}, {true, true}}); got[0] || got[1] {
		t.Fatalf("EvalBatch on unreduced zero function: %v", got)
	}
	if c := f.SatCount(0); c.Sign() != 0 {
		t.Fatalf("SatCount on zero function: %v", c)
	}
	if _, ok := f.AnySat(0); ok {
		t.Fatal("AnySat found an assignment for the zero function")
	}
}
