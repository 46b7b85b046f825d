package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bfbdd/internal/trace"
)

// traceRun validates and pretty-prints build traces exported by the
// server's GET /v1/debug/traces/{id}: one or more exported trace JSON
// objects, a single object or a concatenated stream, read from the named
// files or from stdin when none are given:
//
//	curl -s localhost:8707/v1/debug/traces/t-0000000000000001 | bfbdd trace
//
// Every trace is checked against the export schema invariants (dense
// 1-based span ids, a single root, parents preceding children,
// non-negative durations); a malformed or empty input fails the run.
// Valid traces print as an indented span tree with durations and
// attributes:
//
//	t-0000000000000001 POST /v1/sessions/{sid}/apply 12.4ms spans=9
//	└─ POST /v1/sessions/{sid}/apply 12.4ms status=200
//	   ├─ queue-wait 2.1ms
//	   └─ batch 10.2ms batch_id=7 ops=4
//	      ├─ kernel-build 9.8ms shannon_steps=51193 ...
//	      ...
//
// With -q only validation runs, and each input prints one count line.
func traceRun(c *cli, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	quiet := fs.Bool("q", false, "validate only; print nothing for valid traces")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	failed := false
	process := func(name string, r io.Reader) {
		n, err := c.traces(r, *quiet)
		if err != nil {
			fmt.Fprintf(c.stderr, "bfbdd: trace: %s: %v\n", name, err)
			failed = true
		} else if *quiet {
			c.printf("%s: %d trace(s) valid\n", name, n)
		}
	}
	if fs.NArg() == 0 {
		process("stdin", stdin)
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(c.stderr, "bfbdd: trace: %v\n", err)
			failed = true
			continue
		}
		process(path, f)
		f.Close()
	}
	if failed {
		return errFailed
	}
	return nil
}

// traces decodes, validates, and (unless quiet) prints every trace in r,
// returning how many it saw. An empty input is an error: a smoke test
// piping in an export must not pass vacuously.
func (c *cli) traces(r io.Reader, quiet bool) (int, error) {
	dec := json.NewDecoder(r)
	n := 0
	for {
		var ex trace.Exported
		if err := dec.Decode(&ex); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return n, fmt.Errorf("decode: %w", err)
		}
		if err := ex.Validate(); err != nil {
			return n, fmt.Errorf("trace %q invalid: %w", ex.TraceID, err)
		}
		n++
		if !quiet {
			printTrace(c.stdout, &ex)
		}
	}
	if n == 0 {
		return 0, errors.New("no traces in input")
	}
	return n, nil
}

// printTrace renders one validated trace as an indented span tree.
func printTrace(w io.Writer, ex *trace.Exported) {
	fmt.Fprintf(w, "%s %s %s spans=%d", ex.TraceID, ex.Root,
		fdur(ex.DurationNs), len(ex.Spans))
	if ex.Forced {
		fmt.Fprint(w, " forced")
	}
	if ex.DroppedSpans > 0 {
		fmt.Fprintf(w, " dropped=%d", ex.DroppedSpans)
	}
	fmt.Fprintln(w)

	// children[p] lists the spans whose parent is span id p, in record
	// order (Validate guarantees parents precede children).
	children := make(map[int][]int, len(ex.Spans))
	for i, sp := range ex.Spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	var render func(idx int, prefix string, last bool)
	render = func(idx int, prefix string, last bool) {
		sp := &ex.Spans[idx]
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		fmt.Fprintf(w, "%s%s%s %s", prefix, branch, sp.Name, fdur(sp.DurationNs))
		for _, a := range sp.Attrs {
			fmt.Fprintf(w, " %s=%d", a.Key, a.Value)
		}
		fmt.Fprintln(w)
		kids := children[sp.Span]
		for i, k := range kids {
			render(k, prefix+cont, i == len(kids)-1)
		}
	}
	roots := children[0]
	for i, k := range roots {
		render(k, "", i == len(roots)-1)
	}
}

func fdur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
