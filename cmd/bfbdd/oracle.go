package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/oracle"
)

// oracleRun drives the cross-engine differential oracle
// (internal/oracle): it generates seeded random operation sequences,
// executes each against every construction engine plus a truth-table
// evaluator, and cross-checks canonical structure, evaluation, model
// counts, and metamorphic Boolean identities. On a divergence it writes
// a replay file, delta-debugs the sequence to a minimal reproducer, and
// prints a ready-to-paste regression test. With -replay it re-runs one
// recorded replay file instead. A divergence, or a replay that does not
// reproduce, exits 1.
func oracleRun(c *cli, args []string) error {
	fs := flag.NewFlagSet("oracle", flag.ContinueOnError)
	var (
		seqs         = fs.Int("seqs", 1000, "sequences to run")
		vars         = fs.Int("vars", 10, "variables per sequence (1..14)")
		ops          = fs.Int("ops", 60, "operations per sequence")
		seed         = fs.Int64("seed", 1, "base seed")
		par          = fs.Int("par", runtime.GOMAXPROCS(0), "worker goroutines")
		engineList   = fs.String("engines", "all", "comma-separated engines, or all")
		outDir       = fs.String("out", ".", "directory for replay files")
		doShrink     = fs.Bool("shrink", true, "shrink failures before reporting")
		shrinkBudget = fs.Int("shrink-budget", 400, "max re-executions while shrinking")
		maxFailures  = fs.Int("max-failures", 1, "stop after this many divergences")
		replayPath   = fs.String("replay", "", "verify a replay file and exit")
		verbose      = fs.Bool("v", false, "progress output")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("oracle takes no arguments")
	}
	engines, err := oracle.ParseEngines(*engineList)
	if err != nil {
		return usageError(err.Error())
	}
	if *replayPath != "" {
		return verifyReplay(c, *replayPath, engines)
	}
	if *vars < 1 || *vars > oracle.MaxVars {
		return usagef("-vars must be 1..%d", oracle.MaxVars)
	}
	if *seqs < 1 || *ops < 1 || *par < 1 || *maxFailures < 1 {
		return usagef("-seqs, -ops, -par, -max-failures must be positive")
	}

	start := time.Now()
	var (
		done     atomic.Int64
		failures atomic.Int64
		mu       sync.Mutex // serializes writes to stderr
		wg       sync.WaitGroup
	)
	jobs := make(chan int)
	for w := 0; w < *par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cfg := oracle.Config{Seed: splitmix64(*seed, i), Vars: *vars, Ops: *ops}
				rep := oracle.Run(oracle.Generate(cfg), engines)
				n := done.Add(1)
				if *verbose && n%500 == 0 {
					mu.Lock()
					fmt.Fprintf(c.stderr, "bfbdd-fuzz: %d/%d sequences, %d failures, %s\n",
						n, *seqs, failures.Load(), time.Since(start).Round(time.Millisecond))
					mu.Unlock()
				}
				if rep.Div == nil {
					continue
				}
				failures.Add(1)
				mu.Lock()
				reportFailure(c, cfg, rep, engines, *outDir, *doShrink, *shrinkBudget)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *seqs && failures.Load() < int64(*maxFailures); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		fmt.Fprintf(c.stderr, "bfbdd-fuzz: %d/%d sequences diverged in %s\n",
			n, done.Load(), time.Since(start).Round(time.Millisecond))
		return errFailed
	}
	c.printf("bfbdd-fuzz: %d sequences (%d vars, %d ops, %d engines) passed in %s\n",
		done.Load(), *vars, *ops, len(engines), time.Since(start).Round(time.Millisecond))
	return nil
}

// splitmix64 spreads the base seed across sequence indices so nearby
// indices get unrelated generator streams.
func splitmix64(base int64, i int) int64 {
	x := uint64(base) + uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x &^ (1 << 63)) // keep seeds non-negative for readability
}

// reportFailure shrinks a diverging sequence, writes its replay file,
// and prints the regression test.
func reportFailure(c *cli, cfg oracle.Config, rep oracle.Report, engines []oracle.EngineSpec,
	outDir string, doShrink bool, budget int) {
	fmt.Fprintf(c.stderr, "\nbfbdd-fuzz: seed %d: %s\n", cfg.Seed, rep.Verdict())
	rp := oracle.NewReplay(cfg, rep)
	if doShrink {
		fails := func(s oracle.Sequence) bool { return oracle.Run(s, engines).Div != nil }
		shrunk := oracle.Shrink(rep.Seq, fails, budget)
		rp.AttachShrunk(shrunk, oracle.Run(shrunk, engines).Verdict())
		fmt.Fprintf(c.stderr, "bfbdd-fuzz: shrunk %d ops/%d vars -> %d ops/%d vars\n",
			len(rep.Seq.Ops), rep.Seq.Vars, len(shrunk.Ops), shrunk.Vars)
		fmt.Fprintf(c.stderr, "bfbdd-fuzz: minimal trace:\n%s\n", shrunk)
		fmt.Fprintf(c.stderr, "bfbdd-fuzz: regression test:\n%s", rp.RegressionTest)
	}
	path := filepath.Join(outDir, fmt.Sprintf("replay-%d.json", cfg.Seed))
	if err := oracle.WriteReplay(path, rp); err != nil {
		fmt.Fprintln(c.stderr, "bfbdd-fuzz: writing replay:", err)
		return
	}
	fmt.Fprintf(c.stderr, "bfbdd-fuzz: replay written to %s (rerun: bfbdd oracle -replay %s)\n", path, path)
}

// verifyReplay re-executes a recorded replay and reports whether the
// trace and verdict reproduce exactly.
func verifyReplay(c *cli, path string, engines []oracle.EngineSpec) error {
	rp, err := oracle.ReadReplay(path)
	if err != nil {
		return err
	}
	if err := rp.Verify(engines); err != nil {
		fmt.Fprintln(c.stderr, "bfbdd-fuzz: replay does NOT reproduce:", err)
		return errFailed
	}
	c.printf("bfbdd-fuzz: replay %s reproduces exactly (seed %d, %d ops, verdict %q)\n",
		path, rp.Seed, rp.Ops, rp.Verdict)
	return nil
}
