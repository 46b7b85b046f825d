package main

import (
	"errors"
	"runtime"
	"time"
)

// serveApply1c is one closed-loop client applying against a small
// session: the kernel work is microseconds, so the request path (HTTP,
// coalescer window, executor, WAL) is what it measures. Set-up starts the
// server, creates the session and its variables. It takes milliseconds,
// so scheduling jitter dominates it; it is repeated five times as often as
// the other workloads' set-ups to steady its median.
func serveApply1c(r *run) error {
	type state struct {
		*stack
		a *applier
	}
	st, err := setUp(r, 5*r.cfg.setups, func(dir string) (state, error) {
		s, err := r.startStack(dir)
		if err != nil {
			return state{}, err
		}
		a, err := newApplier(s.c1, r.cfg.sessionVars, r.cfg.seed)
		if err != nil {
			return state{}, errors.Join(err, s.close())
		}
		return state{s, a}, nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	c := st.c1

	before, err := c.counters(st.a.session())
	if err != nil {
		return err
	}
	runtime.GC()
	gw := watchGo()
	done0 := r.completed()
	start := time.Now()
	plain, traced, parts := st.a.loop(start)
	window := time.Since(start)
	done := r.completed() - done0
	gw.finish(r)

	after, err := c.counters(st.a.session())
	if err != nil {
		return err
	}
	r.reportLatency("apply", plain)
	r.set("throughput_per_s", float64(done)/window.Seconds())
	r.set("peak_mb", after.st.PeakBytes/(1<<20))
	if r.cfg.trace {
		r.setWindow(before, after)
		parts.report(r, plain, traced)
	}
	return nil
}
