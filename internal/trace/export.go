package trace

import (
	"errors"
	"fmt"
	"time"
)

// The export schema is the stable wire shape of a completed trace:
// struct-ordered JSON fields, attributes as ordered key/value pairs (no
// maps), span ids dense from 1 in creation order. `bfbdd trace` validates
// and pretty-prints this shape; golden tests pin it.

// ExportedAttr is one attribute of an exported span.
type ExportedAttr struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// ExportedSpan is one span of an exported trace. Parent 0 denotes a root
// span. Times are Unix nanoseconds so the schema has no timezone or
// formatting variance.
type ExportedSpan struct {
	Span        int            `json:"span"`
	Parent      int            `json:"parent"`
	Name        string         `json:"name"`
	StartUnixNs int64          `json:"start_unix_ns"`
	DurationNs  int64          `json:"duration_ns"`
	Attrs       []ExportedAttr `json:"attrs,omitempty"`
}

// Exported is one completed trace in the export schema.
type Exported struct {
	TraceID      string         `json:"trace_id"`
	Root         string         `json:"root"`
	StartUnixNs  int64          `json:"start_unix_ns"`
	DurationNs   int64          `json:"duration_ns"`
	Forced       bool           `json:"forced,omitempty"`
	DroppedSpans int            `json:"dropped_spans,omitempty"`
	Spans        []ExportedSpan `json:"spans"`
}

// FormatTraceID renders a numeric trace id in the export form.
func FormatTraceID(id uint64) string { return fmt.Sprintf("t-%016x", id) }

// Export converts a finished trace to the export schema. The trace should
// be sealed (Finish) first; Export does not seal it.
func (t *Trace) Export() *Exported {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ex := &Exported{
		TraceID:      FormatTraceID(t.id),
		Forced:       t.forced,
		DroppedSpans: t.dropped,
		Spans:        make([]ExportedSpan, len(t.spans)),
	}
	for i := range t.spans {
		sp := &t.spans[i]
		es := ExportedSpan{
			Span:        int(sp.ID),
			Parent:      int(sp.Parent),
			Name:        sp.Name,
			StartUnixNs: sp.Start.UnixNano(),
		}
		if !sp.End.IsZero() {
			es.DurationNs = sp.End.Sub(sp.Start).Nanoseconds()
		}
		if len(sp.Attrs) > 0 {
			es.Attrs = make([]ExportedAttr, len(sp.Attrs))
			for j, a := range sp.Attrs {
				es.Attrs[j] = ExportedAttr{Key: a.Key, Value: a.Value}
			}
		}
		ex.Spans[i] = es
	}
	if len(ex.Spans) > 0 {
		ex.Root = ex.Spans[0].Name
		ex.StartUnixNs = ex.Spans[0].StartUnixNs
		ex.DurationNs = ex.Spans[0].DurationNs
	}
	return ex
}

// Validate checks an exported trace against the schema's structural
// invariants: non-empty id, dense 1-based span ids in order, parents
// referring to an earlier span (or 0), non-negative durations, and
// span 1 being the single root. It is the check `bfbdd trace` and
// the CI trace-smoke job run on server exports.
func (ex *Exported) Validate() error {
	if ex == nil {
		return errors.New("nil trace")
	}
	if ex.TraceID == "" {
		return errors.New("empty trace_id")
	}
	if len(ex.Spans) == 0 {
		return fmt.Errorf("trace %s has no spans", ex.TraceID)
	}
	for i, sp := range ex.Spans {
		if sp.Span != i+1 {
			return fmt.Errorf("trace %s: span at index %d has id %d (want %d)", ex.TraceID, i, sp.Span, i+1)
		}
		if sp.Name == "" {
			return fmt.Errorf("trace %s: span %d has empty name", ex.TraceID, sp.Span)
		}
		if sp.Parent < 0 || sp.Parent >= sp.Span {
			return fmt.Errorf("trace %s: span %d has invalid parent %d", ex.TraceID, sp.Span, sp.Parent)
		}
		if sp.Parent == 0 && sp.Span != 1 {
			return fmt.Errorf("trace %s: span %d is a second root", ex.TraceID, sp.Span)
		}
		if sp.DurationNs < 0 {
			return fmt.Errorf("trace %s: span %d has negative duration %d", ex.TraceID, sp.Span, sp.DurationNs)
		}
		for _, a := range sp.Attrs {
			if a.Key == "" {
				return fmt.Errorf("trace %s: span %d has an attribute with empty key", ex.TraceID, sp.Span)
			}
		}
	}
	return nil
}

// FindSpan returns the first span with the given name, or nil.
func (ex *Exported) FindSpan(name string) *ExportedSpan {
	for i := range ex.Spans {
		if ex.Spans[i].Name == name {
			return &ex.Spans[i]
		}
	}
	return nil
}

// Attr returns the value of the named attribute of a span, if present.
func (es *ExportedSpan) Attr(key string) (int64, bool) {
	for _, a := range es.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return 0, false
}

// Duration returns the span duration as a time.Duration.
func (es *ExportedSpan) Duration() time.Duration { return time.Duration(es.DurationNs) }
