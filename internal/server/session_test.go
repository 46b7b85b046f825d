package server

import (
	"testing"

	"bfbdd"
	"bfbdd/internal/core"
)

// TestSessionEngineAndGCPolicyNames covers the session options' engine
// and gc_policy names: every name the kernel knows, "" for the default,
// and an unknown name, which is a bad request.
func TestSessionEngineAndGCPolicyNames(t *testing.T) {
	cfg := Config{}.withDefaults()
	lower := func(opts []bfbdd.Option) core.Options {
		var o core.Options
		for _, opt := range opts {
			opt(&o)
		}
		return o
	}
	engines := map[string]bfbdd.Engine{
		"": bfbdd.EnginePBF, "df": bfbdd.EngineDF, "bf": bfbdd.EngineBF,
		"hybrid": bfbdd.EngineHybrid, "pbf": bfbdd.EnginePBF, "par": bfbdd.EnginePar,
	}
	for name, want := range engines {
		e, opts, err := SessionOptions{Vars: 4, Engine: name}.options(cfg)
		if err != nil || e != want || lower(opts).Engine != want {
			t.Errorf("engine %q: got %v (options %v), %v; want %v", name, e, lower(opts).Engine, err, want)
		}
	}
	policies := map[string]bfbdd.GCPolicy{
		"": bfbdd.GCCompact, "compact": bfbdd.GCCompact, "freelist": bfbdd.GCFreeList,
	}
	for name, want := range policies {
		_, opts, err := SessionOptions{Vars: 4, GCPolicy: name}.options(cfg)
		if err != nil || lower(opts).GC != want {
			t.Errorf("gc_policy %q: got %v, %v; want %v", name, lower(opts).GC, err, want)
		}
	}
	for _, tc := range []struct {
		o    SessionOptions
		want string
	}{
		{SessionOptions{Vars: 4, Engine: "x"}, `bad request: unknown engine "x"`},
		{SessionOptions{Vars: 4, GCPolicy: "x"}, `bad request: unknown gc_policy "x"`},
	} {
		if _, _, err := tc.o.options(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("options(%+v) = %v, want %s", tc.o, err, tc.want)
		}
	}
}
