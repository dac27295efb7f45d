// Command freqload is the repository's end-to-end benchmark. It composes
// the serving tier in-process from the constructors cmd/freqd,
// cmd/freqrouter and cmd/freqmerge call, drives it over loopback HTTP
// with a seeded, paper-shaped load (Zipf z=1.1, φ=0.001), checks every
// answer against exact truth, and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 freqload/run.py --workload ingest_durable --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced half and a traced half of
// the same composition, and the result carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_items_per_s", "items/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p90_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"precision", "share"},
	{"success_rate", "share"},
	{"state_bytes", "bytes"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.ingest_requests", "count"},
	{"loadgen.queries", "count"},
	{"loadgen.ingest_ack_p99_ms", "ms"},
	{"loadgen.query_p99_ms", "ms"},
	{"serve.ingest.handler_p50_us", "us"},
	{"serve.ingest.handler_p99_us", "us"},
	{"serve.query.handler_p50_us", "us"},
	{"serve.query.handler_p99_us", "us"},
	{"serve.topk.handler_p50_us", "us"},
	{"serve.topk.handler_p99_us", "us"},
	{"serve.client_gap_p50_us", "us"},
	{"serve.busy_share", "share"},
	{"stream.decode_ns_per_item", "ns"},
	{"core.stage_ns_per_item", "ns"},
	{"core.ring_occupancy_max", "slots"},
	{"core.refreshes", "count"},
	{"core.refresh_p50_us", "us"},
	{"core.e2e_over_bare_ratio", "ratio"},
	{"counters.update_ns_per_item", "ns"},
	{"counters.topk_us", "us"},
	{"sketches.update_ns_per_item", "ns"},
	{"sketches.topk_us", "us"},
	{"sketches.hhh_us", "us"},
	{"sketches.range_us", "us"},
	{"sketches.quantile_us", "us"},
	{"sketches.estimate_us", "us"},
	{"persist.append_ns_per_item", "ns"},
	{"persist.fsyncs", "count"},
	{"persist.fsync_p99_ms", "ms"},
	{"persist.inline_drains", "count"},
	{"persist.lag_max_items", "items"},
	{"persist.recover_s", "s"},
	{"persist.replayed_records", "count"},
	{"router.forwards", "count"},
	{"router.retries", "count"},
	{"router.forward_p50_us", "us"},
	{"router.forward_p99_us", "us"},
	{"router.self_ns_per_item", "ns"},
	{"cluster.pulls", "count"},
	{"cluster.pull_failures", "count"},
	{"cluster.pull_p50_ms", "ms"},
	{"cluster.pull_p99_ms", "ms"},
	{"cluster.pull_bytes", "bytes"},
	{"tenant.evictions", "count"},
	{"tenant.reloads", "count"},
	{"tenant.resident_hit_ratio", "share"},
	{"tenant.resident_bytes", "bytes"},
	{"runtime.cpu_util", "share"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_item", "bytes"},
	{"trace.overhead_share", "share"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// failures names the correctness checks that did not hold.
	failures []string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("freqload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured load duration")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "freqload"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !knownWorkload(*name) {
		fmt.Fprintf(stderr, "freqload: unknown workload %q\n", *name)
		return 2
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: fullScale, workDir: *workDir}
	res, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "freqload:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "freqload: correctness check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "freqload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one invocation: untraced, it sets up several times and
// drives one phase; traced, it drives an untraced and a traced phase of
// half the length each.
func bench(o options, log io.Writer) (*result, error) {
	dir, err := os.MkdirTemp(mkdirAll(o.workDir), o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workDir = dir
	in, err := makeInputs(o.workload, o.seed, o.sc)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	runPhase := func(rec *recorder, setups int, seconds float64) (*phase, map[string]float64, error) {
		ph := &phase{o: &o, in: in, rec: rec, c: clock{t0: time.Now()}}
		if rec != nil {
			rec.c = ph.c
		}
		if err := ph.setUp(setups); err != nil {
			return nil, nil, err
		}
		ph.drive(seconds)
		ph.check()
		a, f := ph.counts()
		res.Attempted += a
		res.Failed += f
		res.failures = append(res.failures, ph.gate.failed...)
		return ph, ph.e2e(), nil
	}
	if !o.trace {
		ph, m, err := runPhase(nil, o.sc.setups, o.seconds)
		if err != nil {
			return nil, err
		}
		ph.sys.close()
		fill(res, endToEnd, m)
	} else {
		ph, plain, err := runPhase(nil, 1, o.seconds/2)
		if err != nil {
			return nil, err
		}
		ph.sys.close()
		ph, traced, err := runPhase(&recorder{}, 1, o.seconds/2)
		if err != nil {
			return nil, err
		}
		m := ph.layers(plain, traced)
		ph.sys.close()
		path := filepath.Join(filepath.Dir(dir), "spans-"+o.workload+"-"+strconv.FormatUint(o.seed, 10)+".jsonl")
		if err := writeSpans(path, ph.rec.link()); err != nil {
			fmt.Fprintln(log, "freqload: writing spans:", err)
		}
		fill(res, perLayer, m)
	}
	res.Correct = len(res.failures) == 0
	return res, nil
}

// fill copies the defined metrics into the result, so the result always
// carries exactly the defined set; an unmeasurable value is reported as
// NaN-free 0 and named on the way out.
func fill(res *result, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.failures = append(res.failures, "metric "+d.name+" was not measured")
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}
