package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them as
// Chrome trace-event JSON at exit. A nil *tracer records nothing, so the
// untraced runs pay one nil check per layer boundary.
type tracer struct {
	origin time.Time
	next   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// span is one timed call across a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); Req groups the spans of one request
// or one workload operation.
type span struct {
	Name          string
	ID, Parent    uint64
	Req           uint64
	Lane          int64
	Start, Finish time.Duration // since the tracer's origin
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span under parent (0 for a root) on the given display lane.
func (t *tracer) begin(name string, parent, req uint64, lane int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	now := time.Now()
	return openSpan{t: t, start: now, s: span{
		Name: name, ID: t.next.Add(1), Parent: parent, Req: req, Lane: lane,
		Start: now.Sub(t.origin),
	}}
}

// end closes the span and returns its duration (0 when tracing is off).
func (o openSpan) end() time.Duration {
	if o.t == nil {
		return 0
	}
	d := time.Since(o.start)
	o.s.Finish = o.s.Start + d
	o.t.record(o.s)
	return d
}

// record appends a finished span; used directly for spans whose interval
// is known only after the fact (experiments reported by RunAll).
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finished returns a copy of the spans recorded so far.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span named name, its duration minus the
// time its direct children cover, in milliseconds. Children of one span
// never overlap in this benchmark (one lab run per handler at most), so
// their durations add.
func selfTimes(spans []span, name string) []float64 {
	child := make(map[uint64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Finish - s.Start
		}
	}
	out := make([]float64, 0, len(spans))
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.Finish-s.Start-child[s.ID]))
		}
	}
	return out
}

// spanRef is what the benchmark threads through a request's context: the
// request index, the enclosing span and the display lane.
type spanRef struct {
	req, id uint64
	lane    int64
}

// spanKey carries the enclosing spanRef through a context.
type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// write saves the spans as {"traceEvents": [...]} to path, creating its
// directory; chrome://tracing and ui.perfetto.dev open the file.
func (t *tracer) write(path string) error {
	spans := t.finished()
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "labbench", Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Finish-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane,
			Args: map[string]uint64{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
