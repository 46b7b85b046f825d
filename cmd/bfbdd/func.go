package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"

	"bfbdd"
)

// Compiled function artifacts never need a Manager: every func verb but
// build runs on the packed array alone.

// funcBuild restores a snapshot into a fresh manager and freezes its
// roots into a compiled artifact.
func funcBuild(c *cli, args []string) error {
	out, raw, path, err := parseOutput("build", args)
	if err != nil {
		return err
	}
	m, roots, err := restoreFile(path)
	if err != nil {
		return err
	}
	defer m.Close()
	fn, err := m.CompileRoots(roots)
	if err != nil {
		return err
	}
	serialize := fn.Serialize
	if raw {
		serialize = fn.SerializeRaw
	}
	if err := writeOutput(out, serialize); err != nil {
		return err
	}
	ost, err := os.Stat(out)
	if err != nil {
		return err
	}
	c.printf("compiled %s -> %s: %d vars, %d nodes, %d roots, %d bytes\n",
		path, out, fn.NumVars(), fn.NumNodes(), fn.NumRoots(), ost.Size())
	return nil
}

func loadFunc(path string) (*bfbdd.CompiledFunc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bfbdd.LoadCompiled(bufio.NewReaderSize(f, 1<<20))
}

// funcInfo prints an artifact's header, size and root table.
func funcInfo(c *cli, args []string) error {
	path, err := oneFile("info", "artifact", args)
	if err != nil {
		return err
	}
	fn, err := loadFunc(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	c.printf("file:        %s (%d bytes)\n", path, st.Size())
	c.printf("variables:   %d\n", fn.NumVars())
	c.printf("nodes:       %d\n", fn.NumNodes())
	c.printf("memory:      %d bytes resident\n", fn.MemBytes())
	c.printOrder(fn.Var2Level())
	c.printf("root table:\n")
	for _, id := range fn.RootIDs() {
		r, _ := fn.RootByID(id)
		c.printf("  id %-8d size %d\n", id, fn.RootSize(r))
	}
	return nil
}

// rootFlags parses the -root flag of eval, satcount and anysat.
func rootFlags(verb string, args []string) (id int64, rest []string, err error) {
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	fs.Int64Var(&id, "root", -1, "root id (default: first root)")
	err = parseFlags(fs, args)
	return id, fs.Args(), err
}

// openRoot loads an artifact and resolves -root: the published root ID
// when given, else the artifact's first root.
func openRoot(path string, id int64) (*bfbdd.CompiledFunc, int, error) {
	fn, err := loadFunc(path)
	if err != nil {
		return nil, 0, err
	}
	if fn.NumRoots() == 0 {
		return nil, 0, fmt.Errorf("artifact has no roots")
	}
	if id < 0 {
		return fn, 0, nil
	}
	r, ok := fn.RootByID(uint64(id))
	if !ok {
		return nil, 0, fmt.Errorf("artifact has no root id %d (have %v)", id, fn.RootIDs())
	}
	return fn, r, nil
}

// oneRoot parses the "[-root id] file.fn" command line of satcount and
// anysat.
func oneRoot(verb string, args []string) (*bfbdd.CompiledFunc, int, error) {
	id, rest, err := rootFlags(verb, args)
	if err != nil {
		return nil, 0, err
	}
	path, err := oneFile(verb, "artifact", rest)
	if err != nil {
		return nil, 0, err
	}
	return openRoot(path, id)
}

// parseAssignment turns a "0110..." string into a []bool, one variable
// per character.
func parseAssignment(s string, numVars int) ([]bool, error) {
	if len(s) != numVars {
		return nil, fmt.Errorf("assignment %q has %d characters for %d variables", s, len(s), numVars)
	}
	a := make([]bool, numVars)
	for i := range a {
		if s[i] != '0' && s[i] != '1' {
			return nil, fmt.Errorf("assignment %q: want only 0 and 1", s)
		}
		a[i] = s[i] == '1'
	}
	return a, nil
}

// funcEval evaluates one root on each assignment string.
func funcEval(c *cli, args []string) error {
	id, rest, err := rootFlags("eval", args)
	if err != nil {
		return err
	}
	if len(rest) < 2 {
		return usagef("eval takes an artifact file and at least one assignment string")
	}
	fn, root, err := openRoot(rest[0], id)
	if err != nil {
		return err
	}
	assignments := make([][]bool, len(rest)-1)
	for i, s := range rest[1:] {
		if assignments[i], err = parseAssignment(s, fn.NumVars()); err != nil {
			return err
		}
	}
	for i, v := range fn.EvalBatch(root, assignments) {
		c.printf("%s -> %c\n", rest[1+i], bit(v))
	}
	return nil
}

// funcSatCount prints a root's exact model count.
func funcSatCount(c *cli, args []string) error {
	fn, root, err := oneRoot("satcount", args)
	if err != nil {
		return err
	}
	c.printf("%s\n", fn.SatCount(root).String())
	return nil
}

// funcAnySat prints one satisfying assignment of a root; variables it
// leaves unconstrained print as '-'.
func funcAnySat(c *cli, args []string) error {
	fn, root, err := oneRoot("anysat", args)
	if err != nil {
		return err
	}
	asn, ok := fn.AnySat(root)
	if !ok {
		return fmt.Errorf("unsatisfiable")
	}
	buf := bytes.Repeat([]byte{'-'}, fn.NumVars())
	for v, val := range asn {
		buf[v] = bit(val)
	}
	c.printf("%s\n", buf)
	return nil
}

// bit prints a truth value as '0' or '1'.
func bit(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}
