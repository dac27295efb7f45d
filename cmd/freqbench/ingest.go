package main

// Ingest-plane sweep: freqbench -writers 1,2,4,8 pits the two planes
// freqd chooses between — the single-mutex Concurrent (-shards 1) and
// the lock-free Pipelined plane (-shards N) — at each writer count, on
// the same pre-sliced batch stream. This is the source for the README
// scaling table; unlike the paper experiments (-exp) it measures the
// concurrency planes, not the summaries.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

// batchSink is the part of the two ingest planes the sweep exercises.
type batchSink interface {
	UpdateBatch([]core.Item)
	N() int64
}

// runIngestSweep drives both planes at each writer count and prints an
// items/ms table plus the pipelined-over-mutex speedup.
func runIngestSweep(writersSpec, algosSpec string, shards, n, batch int, phi float64, seed uint64) error {
	writers, err := parseWriters(writersSpec)
	if err != nil {
		return err
	}
	algos := []string{"SSH", "CM"}
	if algosSpec != "" {
		algos = strings.Split(algosSpec, ",")
	}
	if batch <= 0 {
		batch = core.DefaultBatchSize
	}

	gen, err := zipf.NewGenerator(1<<20, 1.1, seed, true)
	if err != nil {
		return err
	}
	stream := gen.Stream(n)
	var batches [][]core.Item
	for i := 0; i < len(stream); i += batch {
		end := i + batch
		if end > len(stream) {
			end = len(stream)
		}
		batches = append(batches, stream[i:end])
	}

	fmt.Printf("ingest-plane sweep: n=%d batch=%d shards=%d GOMAXPROCS=%d\n",
		n, batch, shards, runtime.GOMAXPROCS(0))
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algo\twriters\tmutex items/ms\tpipelined items/ms\tspeedup")
	for _, algo := range algos {
		algo = strings.TrimSpace(algo)
		factory := func() core.Summary { return streamfreq.MustNew(algo, phi, seed) }
		for _, w := range writers {
			locked := drive(core.NewConcurrent(factory()), nil, batches, w)
			p := core.NewPipelined(shards, factory)
			pipelined := drive(p, p.Drain, batches, w)
			p.Close()
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.2fx\n",
				algo, w, locked, pipelined, pipelined/locked)
		}
	}
	return tw.Flush()
}

// drive feeds every batch through w writers sharing an atomic cursor
// and returns throughput in items per millisecond. drain, when set, is
// called inside the timed region: acknowledged-but-staged items are
// not done until applied.
func drive(sink batchSink, drain func(), batches [][]core.Item, w int) float64 {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				sink.UpdateBatch(batches[i])
			}
		}()
	}
	wg.Wait()
	if drain != nil {
		drain()
	}
	elapsed := time.Since(start)
	return float64(sink.N()) / float64(elapsed.Milliseconds()+1)
}

func parseWriters(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-writers wants positive counts like 1,4,8, got %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
