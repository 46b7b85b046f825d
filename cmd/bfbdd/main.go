// Command bfbdd is the offline toolkit. It builds circuits into BDDs,
// checks two circuits for equivalence, and runs the cross-engine
// differential oracle. It also inspects the files bfbdd leaves on disk:
// snapshot streams (Manager.Snapshot, the server's checkpoints,
// POST /v1/sessions/{sid}/snapshot), compiled function artifacts
// (Manager.Compile, GET /v1/funcs/{id}/download, the server's funcs/
// directory), write-ahead-log directories (the server's wal/ subtree),
// and build traces exported by GET /v1/debug/traces/{id}.
//
//	bfbdd circuit (-circuit name | -bench file.bench) [flags]
//	bfbdd verify -spec a -impl b [flags]
//	bfbdd oracle [flags] | bfbdd oracle -replay file
//	bfbdd snap info|verify|repack|dot ...
//	bfbdd func build|info|eval|satcount|anysat ...
//	bfbdd wal info|verify|replay|export ...
//	bfbdd trace [-q] [file ...]
//
// The verify verbs of snap and wal print one machine-readable JSON
// verdict line on stdout. The exit status is 0 on success, 1 on a
// failure, an ok:false verdict, a circuit that is not equivalent or an
// oracle divergence, and 2 on a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bfbdd"
	"bfbdd/internal/durable"
)

const usageText = `usage:
  bfbdd circuit (-circuit name | -bench file.bench) [-engine e] [-workers n] [-order m]
                [-threshold n] [-sat] [-dot out.dot] [-write out.bench]
                                         build one BDD per output; sizes and statistics
  bfbdd verify -spec a -impl b [-engine e] [-workers n] [-order m] [-max-cex n]
                                         equivalence check of two circuits (.bench file or
                                         built-in name); counterexamples, exit 1 if they differ
  bfbdd oracle [-seed n] [-seqs n] [-vars n] [-ops n] [-par n] [-engines list] [-out dir]
               [-shrink=false] [-shrink-budget n] [-max-failures n] [-v]
                                         differential fuzzing of every engine; exit 1 on a divergence
  bfbdd oracle -replay file              re-run a recorded divergence

  engines: df, bf, hybrid, pbf, par; orders: dfs, identity, interleave, reverse, shuffle

  bfbdd snap info   file.snap            inspect header and per-level histogram
  bfbdd snap verify file.snap            full restore; JSON verdict, nonzero exit on corruption
  bfbdd snap repack -o out.snap [-raw] file.snap
                                         rewrite via restore (offline compaction)
  bfbdd snap dot    file.snap            deterministic DOT of the roots on stdout

  bfbdd func build -o out.fn [-raw] file.snap
                                         compile a snapshot's roots into an artifact
  bfbdd func info     file.fn            inspect header and root table
  bfbdd func eval     [-root id] file.fn 0110...
                                         evaluate assignments (one 0/1 string each)
  bfbdd func satcount [-root id] file.fn exact satisfying-assignment count
  bfbdd func anysat   [-root id] file.fn one satisfying assignment, if any

  bfbdd wal info   dir [session-id]      segment chains, record counts, torn tails
  bfbdd wal verify dir [session-id]      one-line JSON verdict; nonzero exit on corruption
  bfbdd wal replay dir session-id        rebuild the session, print the handle table
  bfbdd wal export dir session-id        oracle operation sequence (JSON) on stdout

  bfbdd trace [-q] [file ...]            validate and print exported traces (stdin without files)

exit status: 0 ok, 1 failure or negative verdict, 2 usage error
`

// A command runs one verb on the arguments that follow it.
type command func(c *cli, args []string) error

// verbs take their arguments directly; tools group verbs under a noun.
var verbs = map[string]command{
	"circuit": circuitRun, "verify": verifyRun, "oracle": oracleRun, "trace": traceRun,
}

var tools = map[string]map[string]command{
	"snap": {"info": snapInfo, "verify": snapVerify, "repack": snapRepack, "dot": snapDot},
	"func": {"build": funcBuild, "info": funcInfo, "eval": funcEval, "satcount": funcSatCount, "anysat": funcAnySat},
	"wal":  {"info": walInfo, "verify": walVerify, "replay": walReplay, "export": walExport},
}

// stdin is what trace reads when it is given no files.
var stdin io.Reader = os.Stdin

// cli carries the output streams, so tests can run the tool in-process.
type cli struct {
	stdout, stderr io.Writer
}

func (c *cli) printf(format string, a ...any) { fmt.Fprintf(c.stdout, format, a...) }

// usageError is a malformed command line: exit 2, with the usage text.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// errFailed is a failure already reported on stdout or stderr: exit 1
// with nothing more to print.
var errFailed = errors.New("failed")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	err := dispatch(&cli{stdout: stdout, stderr: stderr}, args)
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprint(stderr, usageText)
		return 0
	case errors.Is(err, errFailed):
		return 1
	case errors.As(err, &ue):
		fmt.Fprintf(stderr, "bfbdd: %v\n%s", err, usageText)
		return 2
	}
	fmt.Fprintf(stderr, "bfbdd: %v\n", err)
	return 1
}

func dispatch(c *cli, args []string) error {
	if len(args) == 0 {
		return usagef("missing command")
	}
	switch args[0] {
	case "-h", "-help", "--help":
		return flag.ErrHelp
	}
	if cmd, ok := verbs[args[0]]; ok {
		return cmd(c, args[1:])
	}
	tool, ok := tools[args[0]]
	if !ok {
		return usagef("unknown command %q", args[0])
	}
	if len(args) < 2 {
		return usagef("%s needs a verb", args[0])
	}
	cmd, ok := tool[args[1]]
	if !ok {
		return usagef("unknown command %q", args[0]+" "+args[1])
	}
	return cmd(c, args[2:])
}

// parseFlags parses a verb's flags; a bad flag is a usage error.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError(err.Error())
	}
	return err
}

// oneFile returns the single file argument a verb takes.
func oneFile(verb, kind string, args []string) (string, error) {
	if len(args) != 1 {
		return "", usagef("%s takes exactly one %s file", verb, kind)
	}
	return args[0], nil
}

// verdict prints v as one JSON line on stdout; CI gates parse it, so
// each verdict's shape is append-only. A verdict that is not ok fails
// the run.
func (c *cli) verdict(ok bool, v any) error {
	out, _ := json.Marshal(v)
	fmt.Fprintln(c.stdout, string(out))
	if !ok {
		return errFailed
	}
	return nil
}

// printOrder prints the variable-order line both info verbs share.
func (c *cli) printOrder(var2level []int) {
	for v, l := range var2level {
		if v != l {
			c.printf("order:       %v (var -> level)\n", var2level)
			return
		}
	}
	c.printf("order:       identity\n")
}

// restoreFile restores a snapshot file into a fresh manager.
func restoreFile(path string) (*bfbdd.Manager, []bfbdd.SnapshotRoot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return bfbdd.RestoreManager(f)
}

// parseOutput parses the "-o out [-raw] file.snap" command line that
// snap repack and func build share.
func parseOutput(verb string, args []string) (out string, raw bool, path string, err error) {
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	fs.StringVar(&out, "o", "", "output file (required)")
	fs.BoolVar(&raw, "raw", false, "write raw child references instead of varint deltas")
	if err = parseFlags(fs, args); err != nil {
		return
	}
	if out == "" {
		err = usagef("%s needs -o output", verb)
		return
	}
	path, err = oneFile(verb, "snapshot", fs.Args())
	return
}

// writeOutput commits path through internal/durable: a crash leaves the
// old file or the new one whole, so -o may name the input itself.
func writeOutput(path string, write func(io.Writer) error) error {
	return durable.WriteFile(filepath.Dir(path), filepath.Base(path), write)
}
