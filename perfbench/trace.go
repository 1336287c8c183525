package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share Trace
// (the op index); Parent names the span that caused this one.
type span struct {
	Pass   string `json:"pass"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps one pass's spans in memory until the run ends. The client
// goroutine and the server's handler goroutine both record, hence the mutex.
type tracer struct {
	epoch time.Time
	pass  string
	mu    sync.Mutex
	spans []span
}

func newTracer(pass string, epoch time.Time) *tracer { return &tracer{epoch: epoch, pass: pass} }

func (t *tracer) record(trace int, name, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Pass: t.pass, Trace: trace, Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns, per op, the duration of the spans named name (summed
// when an op has several).
func (t *tracer) durations(name string, nops int) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]time.Duration, nops)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Trace] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// middleware wraps the server's handler and records a server.handler span,
// child of the client's round trip, for every request carrying an op index.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idx, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(idx, "server.handler", "client.roundtrip", start, time.Now())
	})
}

// writeSpans stores every span of the tracers as one JSON object per line.
func writeSpans(path string, tracers ...*tracer) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, t := range tracers {
			t.mu.Lock()
			spans := t.spans
			t.mu.Unlock()
			for _, s := range spans {
				if err := enc.Encode(s); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
