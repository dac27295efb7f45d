package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the result must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func tinyOptions(t *testing.T, w string, trace bool) options {
	return options{workload: w, seed: 7, seconds: 1, trace: trace, sc: tinyScale, workDir: t.TempDir()}
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced
// and traced, and checks each passes the gate and emits exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if !knownWorkload(w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := bench(tinyOptions(t, w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failures=%v", w.Name, trace, res.Correct, res.Attempted, res.failures)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			// The result line must round-trip as the contract's JSON.
			line, err := json.Marshal(res)
			if err != nil || !bytes.HasPrefix(line, []byte(`{"correct":true,"attempted":`)) {
				t.Errorf("%s trace=%v: result line %s (%v)", w.Name, trace, line, err)
			}
		}
	}
}

// TestGateCatchesWrongN serves a forced refresh whose n is off by one
// and checks the correctness gate names the failed check.
func TestGateCatchesWrongN(t *testing.T) {
	o := tinyOptions(t, "ingest_durable", false)
	o.fault = func(role, addr string, level int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/refresh" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var body map[string]int64
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Error(err)
			}
			body["n"]++
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(body)
		})
	}
	res, err := bench(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("gate passed a served n that is off by one")
	}
	if len(res.failures) != 1 || !strings.HasPrefix(res.failures[0], "served_n:") {
		t.Fatalf("failures = %q, want exactly the served_n check", res.failures)
	}
}

// TestOpenLoopChargesStalls shows coordinated omission is not hidden:
// one handler stall of `pause` blocks the server, and every request due
// during it is charged the wait from its due time. The p99 (the third
// largest of 200 samples; traced runs report it as loadgen.query_p99_ms)
// therefore rises by the pause less the two schedule steps between the
// first three requests the stall delayed,
// and every request due in the stall's first half counts as delayed —
// not just the one or two in flight when it began.
func TestOpenLoopChargesStalls(t *testing.T) {
	const rate, seconds = 100.0, 2.0
	const pause = 300 * time.Millisecond
	period := time.Duration(float64(time.Second) / rate)
	run := func(stall bool) []float64 {
		var mu sync.Mutex
		var seen int
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen++
			if stall && seen == int(rate/2) {
				time.Sleep(pause)
			}
			mu.Unlock()
			_, _ = io.WriteString(w, `{"n":1}`)
		}))
		defer srv.Close()
		tg := newTarget(srv.URL)
		defer tg.close()
		src := &source{target: tg, reqs: []request{getReq(opTopK, "/v1/topk", true)}, rate: rate, workers: 2}
		samples := runSources(clock{t0: time.Now()}, 0, int64(seconds*1e9), []*source{src}, &ackLog{}, &traceSeq{})
		return latencies(samples, func(*sample) bool { return true })
	}
	base, stalled := run(false), run(true)
	rise := time.Duration(percentile(stalled, 0.99) - percentile(base, 0.99))
	if want := pause - 3*period; rise < want {
		t.Errorf("p99 rose by %v under a %v stall, want at least %v", rise, pause, want)
	}
	delayed := 0
	for _, l := range stalled {
		if time.Duration(l) >= pause/2 {
			delayed++
		}
	}
	if want := int(pause / 2 / period); delayed < want {
		t.Errorf("%d requests charged at least %v, want %d (every request due in the stall's first half)", delayed, pause/2, want)
	}
}
