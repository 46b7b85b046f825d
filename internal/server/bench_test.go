package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// benchServer is testServer for benchmarks: same wiring, b-flavored
// cleanup.
func benchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("Shutdown: %v", err)
		}
	})
	return srv, ts
}

func benchPost(b *testing.B, url string, body string) map[string]any {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		b.Fatalf("%s -> %d: %v", url, resp.StatusCode, out)
	}
	return out
}

// BenchmarkServerApply measures the end-to-end latency of one /apply
// round trip — the denominator for the WAL's durability-overhead
// budget. The default/* variants run the server as deployed (2ms
// coalesce window), which is the p50 apply latency a client actually
// observes; the interval-policy delta there is the headline overhead
// the README's durability matrix quotes. The raw/* variants floor the
// coalesce window at 1ns to expose the journaling cost on the bare apply
// path, without batching slack — a harsher, secondary number;
// raw/wal=off/vars=16384 is raw/wal=off on a session of the most variables
// the server accepts, for an apply that touches two of them, which must
// cost what it does on a 16-variable session.
func BenchmarkServerApply(b *testing.B) {
	mk := func(window time.Duration, sync string) func(b *testing.B) Config {
		return func(b *testing.B) Config {
			cfg := Config{CoalesceWindow: window}
			if sync != "" {
				cfg.CheckpointDir = b.TempDir()
				cfg.CheckpointInterval = -1
				cfg.WALSync = sync
			}
			return cfg
		}
	}
	// default/spill=on runs with memory tiering configured but never
	// triggered (no idle threshold, no resident cap): the cost of the
	// tiering hooks on the hot apply path, which must stay within noise
	// of default/wal=off.
	spillCfg := func(b *testing.B) Config {
		return Config{CoalesceWindow: 0, SpillDir: b.TempDir()}
	}
	variants := []struct {
		name string
		cfg  func(b *testing.B) Config
		vars int
	}{
		{"default/wal=off", mk(0, ""), 16},
		{"default/wal=interval", mk(0, "interval"), 16},
		{"default/spill=on", spillCfg, 16},
		{"raw/wal=off", mk(time.Nanosecond, ""), 16},
		{"raw/wal=off/vars=16384", mk(time.Nanosecond, ""), 16384},
		{"raw/wal=interval", mk(time.Nanosecond, "interval"), 16},
		{"raw/wal=always", mk(time.Nanosecond, "always"), 16},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			_, ts := benchServer(b, v.cfg(b))
			sout := benchPost(b, ts.URL+"/v1/sessions", fmt.Sprintf(`{"vars":%d}`, v.vars))
			sid := sout["session"].(string)
			s := ts.URL + "/v1/sessions/" + sid
			var handles [8]uint64
			for i := range handles {
				hout := benchPost(b, s+"/vars", fmt.Sprintf(`{"index":%d}`, i))
				handles[i] = uint64(hout["handle"].(float64))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := handles[i%len(handles)]
				g := handles[(i+3)%len(handles)]
				benchPost(b, s+"/apply", fmt.Sprintf(`{"op":"xor","f":%d,"g":%d}`, f, g))
			}
		})
	}
}

// BenchmarkEvalHandler measures the eval route in-process, from request
// body to encoded response, on a 256×22 batch: the shape perfbench's
// serve-rw sends a published mult-11. canonical is the body as a JSON
// encoder writes it, which the scanner decodes; fallback differs only in
// one key's case, which sends it through encoding/json.
func BenchmarkEvalHandler(b *testing.B) {
	_, ts := benchServer(b, Config{})
	sid := benchPost(b, ts.URL+"/v1/sessions", `{"vars":22}`)["session"].(string)
	s := ts.URL + "/v1/sessions/" + sid
	// f = x0 xor (x1 and x2) xor (x3 and x4) ... over all 22 variables.
	f := benchPost(b, s+"/vars", `{"index":0}`)["handle"]
	for v := 1; v+1 < 22; v += 2 {
		x := benchPost(b, s+"/vars", fmt.Sprintf(`{"index":%d}`, v))["handle"]
		y := benchPost(b, s+"/vars", fmt.Sprintf(`{"index":%d}`, v+1))["handle"]
		g := benchPost(b, s+"/apply", fmt.Sprintf(`{"op":"and","f":%v,"g":%v}`, x, y))["handle"]
		f = benchPost(b, s+"/apply", fmt.Sprintf(`{"op":"xor","f":%v,"g":%v}`, f, g))["handle"]
	}
	benchPost(b, s+"/publish", fmt.Sprintf(`{"name":"bench","handles":[%v]}`, f))
	canonical := canonicalEvalBody(uint64(f.(float64)))
	h := ts.Config.Handler
	for _, v := range []struct{ name, body string }{
		{"canonical", canonical},
		{"fallback", strings.Replace(canonical, `"root"`, `"Root"`, 1)},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(v.body)))
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/funcs/bench/eval", strings.NewReader(v.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("eval -> %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
