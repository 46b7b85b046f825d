package main

import (
	"fmt"
	"io"
	"os"

	"bfbdd"
	"bfbdd/internal/node"
	"bfbdd/internal/snapshot"
)

// snapInfo prints the header, variable order, per-level node histogram
// and root table of a snapshot stream without building a single node.
func snapInfo(c *cli, args []string) error {
	path, err := oneFile("info", "snapshot", args)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}

	info, err := snapshot.Inspect(f)
	if err != nil {
		return err
	}
	h := info.Header
	c.printf("file:        %s (%d bytes)\n", path, st.Size())
	c.printf("version:     %d\n", h.Version)
	enc := "raw"
	if h.Flags&snapshot.FlagDeltaRefs != 0 {
		enc = "delta"
	}
	c.printf("child refs:  %s\n", enc)
	c.printf("variables:   %d\n", h.NumVars)
	c.printf("nodes:       %d\n", h.TotalNodes)
	c.printf("roots:       %d\n", h.NumRoots)
	c.printOrder(info.Var2Level)

	c.printf("levels (stream order, deepest first):\n")
	c.printf("  %8s %12s %12s %8s\n", "level", "nodes", "bytes", "b/node")
	var residentEst uint64
	for _, li := range info.Levels {
		c.printf("  %8d %12d %12d %8.2f\n",
			li.Level, li.Count, li.Bytes, float64(li.Bytes)/float64(li.Count))
		// Arena blocks are the spill/resident granule: a restored level
		// occupies whole blocks of BlockSize nodes.
		blocks := (li.Count + node.BlockSize - 1) / node.BlockSize
		residentEst += uint64(blocks) * node.BlockSize * node.NodeBytes
	}
	c.printf("estimated memory (restored, fully resident):\n")
	c.printf("  node store:  %d bytes (%d-node arena blocks, %d b/node)\n",
		residentEst, node.BlockSize, node.NodeBytes)
	c.printf("  spillable:   %d bytes across %d levels (resident floor ~0 when fully tiered)\n",
		residentEst, len(info.Levels))
	if len(info.Roots) > 0 {
		c.printf("root table:\n")
		for _, rt := range info.Roots {
			switch {
			case rt.Ref.IsZero():
				c.printf("  id %-8d -> constant 0\n", rt.ID)
			case rt.Ref.IsOne():
				c.printf("  id %-8d -> constant 1\n", rt.ID)
			default:
				c.printf("  id %-8d -> node at level %d\n", rt.ID, rt.Ref.Level())
			}
		}
	}
	return nil
}

// snapVerdict is the one-line result of snap verify.
type snapVerdict struct {
	OK    bool   `json:"ok"`
	File  string `json:"file"`
	Vars  int    `json:"vars,omitempty"`
	Roots int    `json:"roots,omitempty"`
	Nodes uint64 `json:"nodes,omitempty"`
	Error string `json:"error,omitempty"`
}

// snapVerify restores the stream into a fresh manager: any corruption
// gives an ok:false verdict.
func snapVerify(c *cli, args []string) error {
	path, err := oneFile("verify", "snapshot", args)
	if err != nil {
		return err
	}
	v := snapVerdict{File: path}
	m, roots, err := restoreFile(path)
	if err != nil {
		v.Error = err.Error()
	} else {
		defer m.Close()
		v.OK = true
		v.Vars, v.Roots, v.Nodes = m.NumVars(), len(roots), m.NumNodes()
	}
	return c.verdict(v.OK, v)
}

// snapRepack restores and re-snapshots the stream: offline compaction
// that drops nothing live but renumbers densely, optionally switching
// between delta and raw child encoding.
func snapRepack(c *cli, args []string) error {
	out, raw, path, err := parseOutput("repack", args)
	if err != nil {
		return err
	}
	m, roots, err := restoreFile(path)
	if err != nil {
		return err
	}
	defer m.Close()
	ist, err := os.Stat(path)
	if err != nil {
		return err
	}

	var opts []bfbdd.SnapshotOption
	if raw {
		opts = append(opts, bfbdd.SnapshotRawRefs())
	}
	if err := writeOutput(out, func(w io.Writer) error { return m.SnapshotRoots(w, roots, opts...) }); err != nil {
		return err
	}
	ost, err := os.Stat(out)
	if err != nil {
		return err
	}
	c.printf("repacked %s (%d bytes) -> %s (%d bytes), %d live nodes\n",
		path, ist.Size(), out, ost.Size(), m.NumNodes())
	return nil
}

// snapDot prints a deterministic Graphviz DOT of the stream's roots.
func snapDot(c *cli, args []string) error {
	path, err := oneFile("dot", "snapshot", args)
	if err != nil {
		return err
	}
	m, roots, err := restoreFile(path)
	if err != nil {
		return err
	}
	defer m.Close()
	if len(roots) == 0 {
		return fmt.Errorf("snapshot has no roots to render")
	}
	names := make([]string, len(roots))
	bdds := make([]*bfbdd.BDD, len(roots))
	for i, rt := range roots {
		names[i] = fmt.Sprintf("id%d", rt.ID)
		bdds[i] = rt.B
	}
	return bfbdd.WriteDOT(c.stdout, names, bdds...)
}
