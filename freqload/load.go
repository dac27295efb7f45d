package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamfreq/internal/obs"
)

// The load generator. Every request it sends is pre-built from the
// seed before any timer starts; the system under test only ever sees
// those bytes. Two disciplines:
//
//   - closed loop: a producer sends its next body only after the
//     previous ack, so a slow system receives less load (a caller
//     that waits for each reply);
//   - open loop: request i of a stream is due at start + i/rate no
//     matter how the system is doing, and its latency is measured from
//     that due time, so a stall is charged to every request it delays
//     (independent users; no coordinated omission).

// Operation kinds, one per route class.
const (
	opIngest = iota
	opTopK
	opEstimate
	opHHH
	opRange
	opQuantile
	opKinds
)

var opNames = [opKinds]string{"ingest", "topk", "estimate", "hhh", "range", "quantile"}

// request is one pre-built HTTP request.
type request struct {
	kind   int
	method string
	path   string // path and query, appended to the target's base URL
	body   []byte
	items  int
	ref    int  // ingest: index of the body in its pool; query: unused
	tenant int  // tenant index, -1 for un-namespaced requests
	global bool // the response's "n" is the node- or cluster-wide position
}

// sample is the record of one sent request. Times are nanoseconds since
// the phase clock started.
type sample struct {
	kind      int8
	ok        bool
	global    bool
	open      bool // sent on an open-loop schedule
	due, sent int64
	done      int64
	n         int64 // served n from the response (-1 when absent); acked total at ack for ingest
	items     int32
	ref       int32
	tenant    int32
	trace     uint64
}

// latency is the request's time from due to completion; failures are
// +Inf so they count beyond any latency limit.
func (s *sample) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.done - s.due)
}

// target is one client's route to one daemon, with its own bounded
// connection pool: at most nproc connections, so requests beyond that
// wait for a connection the way real clients of a saturated node do.
type target struct {
	base   string
	client *http.Client
}

func newTarget(base string) *target {
	conns := runtime.NumCPU()
	return &target{base: base, client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// clock is a phase's time origin; sample times are offsets from it.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// sendBuf is a worker's reusable response buffer.
type sendBuf struct{ b bytes.Buffer }

var nKey = []byte(`"n":`)

// servedN extracts the top-level "n" field from a JSON response body
// without decoding it (responses encode map keys sorted, and no nested
// row of any route has an "n" key), so the generator spends its CPU
// sending, not parsing.
func servedN(body []byte) int64 {
	i := bytes.Index(body, nKey)
	if i < 0 {
		return -1
	}
	j := i + len(nKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	v, err := strconv.ParseInt(string(body[j:k]), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// send issues rq against t, tagged with the trace ID, and fills the
// outcome fields of s.
func send(t *target, rq *request, trace uint64, buf *sendBuf, c clock, s *sample) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, t.base+rq.path, body)
	s.sent = c.now()
	s.kind, s.items, s.ref, s.tenant, s.trace, s.global = int8(rq.kind), int32(rq.items), int32(rq.ref), int32(rq.tenant), trace, rq.global
	s.n = -1
	if err != nil {
		s.done = c.now()
		return
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	req.Header.Set(obs.TraceHeader, traceID(trace))
	resp, err := t.client.Do(req)
	if err != nil {
		s.done = c.now()
		return
	}
	buf.b.Reset()
	_, rerr := buf.b.ReadFrom(resp.Body)
	resp.Body.Close()
	s.done = c.now()
	s.ok = rerr == nil && resp.StatusCode == http.StatusOK
	if s.ok && rq.kind != opIngest {
		s.n = servedN(buf.b.Bytes())
	}
}

// traceID renders the generator-minted X-Freq-Trace value.
func traceID(id uint64) string { return "fl-" + strconv.FormatUint(id, 16) }

// traceSeq mints trace IDs; each request gets its own.
type traceSeq struct{ n atomic.Uint64 }

func (t *traceSeq) next() uint64 { return t.n.Add(1) }

// ackLog turns ingest acks into the generator's cumulative acked total,
// which the freshness metric compares served positions against.
type ackLog struct{ total atomic.Int64 }

// source is one traffic source of a phase.
type source struct {
	target  *target
	reqs    []request // cycled
	closed  bool      // closed loop (producers) or open loop (rate)
	workers int       // producers (closed) or senders (open)
	rate    float64   // open loop: requests per second
}

// runSources drives every source from `from` until `until` (phase
// clock offsets) and returns the samples. Closed-loop producers
// stop issuing at `until`; open-loop sources schedule requests due
// before it. It returns once every in-flight request has completed.
func runSources(c clock, from, until int64, sources []*source, acks *ackLog, traces *traceSeq) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for _, st := range sources {
		var next atomic.Int64
		for w := 0; w < st.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf sendBuf
				local := make([]sample, 0, 1024)
				for {
					i := next.Add(1) - 1
					var due int64
					if st.closed {
						due = c.now()
						if due >= until {
							break
						}
					} else {
						due = from + int64(float64(i)*1e9/st.rate)
						if due >= until {
							break
						}
						if d := due - c.now(); d > 0 {
							time.Sleep(time.Duration(d))
						}
					}
					rq := &st.reqs[int(i%int64(len(st.reqs)))]
					s := sample{due: due, open: !st.closed}
					send(st.target, rq, traces.next(), &buf, c, &s)
					if s.ok && rq.kind == opIngest {
						s.n = acks.total.Add(int64(rq.items))
					}
					local = append(local, s)
				}
				mu.Lock()
				all = append(all, local...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all
}

// awaitVisible polls the query target until a response shows a served
// position of at least want, returning the polls (so freshness can use
// them) and whether the position became visible before the deadline.
func awaitVisible(c clock, t *target, rq *request, want int64, timeout time.Duration, traces *traceSeq) ([]sample, bool) {
	var buf sendBuf
	var polls []sample
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s := sample{due: c.now()}
		send(t, rq, traces.next(), &buf, c, &s)
		polls = append(polls, s)
		if s.ok && s.n >= want {
			return polls, true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return polls, false
}

// percentile returns the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latencies collects the due-to-done latencies of the matching samples,
// sorted, failures last (as +Inf).
func latencies(samples []sample, match func(*sample) bool) []float64 {
	var out []float64
	for i := range samples {
		if match(&samples[i]) {
			out = append(out, samples[i].latency())
		}
	}
	sort.Float64s(out)
	return out
}

// freshness returns, for each ack, the time from the ack until a
// response completed at or after it shows a served position of at least
// the cumulative acked total at that ack — the stream's "last event to
// result" latency. Acks and responses are matched in one merge pass:
// both the acked total and the first satisfying response only move
// forward in ack order.
func freshness(samples []sample) []float64 {
	type ack struct{ t, total int64 }
	type resp struct{ t, n int64 }
	var acks []ack
	var resps []resp
	for i := range samples {
		s := &samples[i]
		switch {
		case !s.ok:
		case s.kind == opIngest:
			acks = append(acks, ack{s.done, s.n})
		case s.global && s.n >= 0:
			resps = append(resps, resp{s.done, s.n})
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].t < acks[j].t })
	sort.Slice(resps, func(i, j int) bool { return resps[i].t < resps[j].t })
	// The acked total is cumulative across producers, so in ack-time
	// order it can only grow; enforce that against reordering of equal
	// timestamps.
	var out []float64
	j := 0
	var want int64
	for _, a := range acks {
		if a.total > want {
			want = a.total
		}
		for j < len(resps) && (resps[j].t < a.t || resps[j].n < want) {
			j++
		}
		if j == len(resps) {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(resps[j].t-a.t))
	}
	sort.Float64s(out)
	return out
}
