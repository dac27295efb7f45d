package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
)

// The traced run. Spans are recorded from this package only, by
// wrappers at seams the program already takes as interfaces and never
// type-asserts: the http.Handler around each daemon's Handler(), the
// http.RoundTripper in the router's and coordinator's clients, and the
// core.Persister handed to PersistTo. serve.Target is deliberately not
// wrapped: the query handlers dispatch on its capability interfaces, so
// a wrapper would change which routes answer.

// Span levels: a client request (0), the handler of the daemon it hit
// (1), a hop that handler or a background loop made (2), the handler
// serving that hop (3), and a WAL append (4), which carries no request
// context.
const (
	lvClient = iota
	lvHandler
	lvHop
	lvHopHandler
	lvPersist
)

type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Addr   string `json:"addr,omitempty"` // daemon address (handlers) or peer address (hops)
	Level  int    `json:"level"`
	Start  int64  `json:"start"` // ns since the phase clock
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the parent span, -1 for roots
	Items  int    `json:"items,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	c     clock
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// routeName maps a request path to its route class: /v1/ingest and
// /v1/t/{ns}/ingest are both "ingest".
func routeName(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// traceHandler wraps a daemon's Handler(): one span per request.
func (r *recorder) traceHandler(role, addr string, level int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.c.now()
		h.ServeHTTP(w, req)
		r.add(span{
			Name:  role + "." + routeName(req.URL.Path),
			Trace: req.Header.Get(obs.TraceHeader),
			Addr:  addr, Level: level, Start: start, End: r.c.now(),
		})
	})
}

// traceTransport wraps a daemon's outgoing client: one span per hop,
// ended when the response body is closed so a pull's span covers the
// whole summary transfer.
type traceTransport struct {
	rec  *recorder
	name string
	next http.RoundTripper
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{Name: t.name, Trace: req.Header.Get(obs.TraceHeader), Addr: req.URL.Host,
		Level: lvHop, Start: t.rec.c.now()}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = t.rec.c.now()
		t.rec.add(s)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.rec.c.now()
		b.rec.add(b.s)
	})
	return err
}

// tracedClient wraps client's transport (or the default one) in spans.
func (r *recorder) tracedClient(name string, client *http.Client) *http.Client {
	rt := client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	c := *client
	c.Transport = &traceTransport{rec: r, name: name, next: rt}
	return &c
}

// tracedPersister wraps the core.Persister passed to PersistTo.
type tracedPersister struct {
	core.Persister
	rec *recorder
}

func (p tracedPersister) AppendBatch(items []core.Item) {
	start := p.rec.c.now()
	p.Persister.AppendBatch(items)
	p.rec.add(span{Name: "persist.append", Level: lvPersist, Start: start, End: p.rec.c.now(), Items: len(items)})
}

func (p tracedPersister) AppendUpdate(x core.Item, count int64) {
	start := p.rec.c.now()
	p.Persister.AppendUpdate(x, count)
	p.rec.add(span{Name: "persist.append", Level: lvPersist, Start: start, End: p.rec.c.now(), Items: 1})
}

// addClientSpans records the generator's own requests as root spans.
func (r *recorder) addClientSpans(samples []sample) {
	for i := range samples {
		s := &samples[i]
		r.add(span{Name: "loadgen." + opNames[s.kind], Trace: traceID(s.trace), Level: lvClient,
			Start: s.sent, End: s.done, Items: int(s.items)})
	}
}

// link returns a copy of the spans recorded so far, each with its
// parent: the span one level up with the same trace ID whose interval
// contains it (and, for a hop's handler, the hop to that handler's
// address). WAL appends carry no trace and stay roots.
func (r *recorder) link() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	type key struct {
		trace string
		level int
	}
	idx := make(map[key][]int)
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		if s.Trace != "" {
			k := key{s.Trace, s.Level}
			idx[k] = append(idx[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Trace == "" || s.Level == lvClient || s.Level == lvPersist {
			continue
		}
		for _, j := range idx[key{s.Trace, s.Level - 1}] {
			p := &spans[j]
			if p.Start > s.Start || p.End < s.End {
				continue
			}
			if s.Level == lvHopHandler && p.Addr != s.Addr {
				continue
			}
			s.Parent = j
			break
		}
	}
	return spans
}

// selfTime returns span i's duration minus the part of its interval its
// children cover (children may overlap: a router fans a batch out to
// every replica at once).
func selfTime(spans []span, children [][]int, i int) int64 {
	kids := children[i]
	if len(kids) == 0 {
		return spans[i].dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{spans[k].Start, spans[k].End})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			covered += cur[1] - cur[0]
			cur = v
			continue
		}
		if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	covered += cur[1] - cur[0]
	return spans[i].dur() - covered
}

// childrenOf indexes each span's children.
func childrenOf(spans []span) [][]int {
	out := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			out[p] = append(out[p], i)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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

// since is a helper for timing direct calls in nanoseconds.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }
