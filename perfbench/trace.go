package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call across a layer boundary, recorded from the
// benchmark's own wrappers around the program's public entry points.
type span struct {
	id, parent int64
	layer      string // "gateway", "backend-call", "server", "experiments"
	name       string // request path or experiment phase
	start, end time.Time
	// code and body are the status and response body of a backend
	// span; the body is kept for simulate requests only, for decoding
	// the job view after the window.
	code int
	body []byte
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []*span
}

func (t *tracer) begin(layer, name string, parent int64) *span {
	if t == nil {
		return nil
	}
	return &span{id: t.next.Add(1), parent: parent, layer: layer, name: name, start: time.Now()}
}

func (t *tracer) finish(s *span) {
	if t == nil {
		return
	}
	s.end = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (those of set-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// all returns the recorded spans in start order.
func (t *tracer) all() []*span {
	t.mu.Lock()
	out := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// write saves the spans as JSON lines, one object per span in start
// order, with times in microseconds from the first span's start.
func (t *tracer) write(path string) error {
	spans := t.all()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		us := func(x time.Time) int64 { return x.Sub(spans[0].start).Microseconds() }
		if err := enc.Encode(struct {
			ID      int64  `json:"id"`
			Parent  int64  `json:"parent,omitempty"`
			Layer   string `json:"layer"`
			Name    string `json:"name"`
			StartUS int64  `json:"start_us"`
			EndUS   int64  `json:"end_us"`
			Code    int    `json:"code,omitempty"`
		}{s.id, s.parent, s.layer, s.name, us(s.start), us(s.end), s.code}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the part of parent's interval that none of its children
// covers. Children may overlap each other (the gateway fans a sweep out
// over concurrent backend calls) and may stick out of the parent; only
// the union of their intersections with the parent is subtracted.
func selfTime(parent *span, children []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.dur() - covered
}

// spanKey carries the enclosing gateway span ID through the request
// context, from the gateway's handler to the backend calls its client
// makes on the request's behalf.
type spanKey struct{}

// spanHeader links a backend call to the backend handler span it
// produces. It is set and read only by the benchmark's wrappers.
const spanHeader = "X-Perfbench-Span"

// wrapGateway records one "gateway" span per routed request and puts
// its ID into the request context.
func (t *tracer) wrapGateway(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := t.begin("gateway", r.URL.Path, 0)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.id)))
		t.finish(s)
	})
}

// clientTransport records one "backend-call" span per gateway request
// to a backend, parented to the gateway span in the request context;
// the span ends when the gateway closes the response body.
type clientTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (c clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(int64)
	s := c.t.begin("backend-call", req.URL.Path, parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(s.id, 10))
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		c.t.finish(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { c.t.finish(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// wrapServer records one "server" span per backend request, parented to
// the backend call that carried it. Simulate responses are copied into
// the span so the job view's timestamps can be read after the window.
func (t *tracer) wrapServer(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := t.begin("server", r.URL.Path, parent)
		rw := &recordWriter{ResponseWriter: w, code: http.StatusOK, keep: r.URL.Path == "/v1/simulate"}
		h.ServeHTTP(rw, r)
		s.code, s.body = rw.code, rw.buf.Bytes()
		t.finish(s)
	})
}

// recordWriter notes the status code and, when keep is set, copies the
// body.
type recordWriter struct {
	http.ResponseWriter
	code int
	keep bool
	buf  bytes.Buffer
}

func (w *recordWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.buf.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// childrenOf indexes spans by parent ID.
func childrenOf(spans []*span) map[int64][]*span {
	m := make(map[int64][]*span)
	for _, s := range spans {
		if s.parent != 0 {
			m[s.parent] = append(m[s.parent], s)
		}
	}
	return m
}
