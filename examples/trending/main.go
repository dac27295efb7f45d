// Trending: heavy hitters over the *recent* stream only — a sliding
// window of the last 100k queries — so yesterday's hits decay away and a
// newly hot query surfaces within one window. Also keeps a GK quantile
// summary of per-query latencies, the companion summary class.
//
//	go run ./examples/trending
package main

import (
	"fmt"
	"log"

	"streamfreq"
	"streamfreq/internal/prng"
	"streamfreq/internal/trace"
)

func main() {
	const (
		windowSize = 100_000
		phi        = 0.01
	)

	win, err := streamfreq.NewWindowed(windowSize, 10, 2*int(1/phi))
	if err != nil {
		log.Fatal(err)
	}
	lat := streamfreq.NewQuantile(0.01)
	rng := prng.New(5)

	gen, err := trace.NewHTTP(trace.DefaultHTTPConfig(77))
	if err != nil {
		log.Fatal(err)
	}

	// Epoch 1: steady state, 3 windows long.
	for i := 0; i < 3*windowSize; i++ {
		win.Update(gen.Next(), 1)
		lat.Insert(rng.ExpFloat64() * 20) // ms, exponential service times
	}
	fmt.Println("epoch 1 (steady state):")
	show(win, phi)

	// Epoch 2: a breaking query takes over 5% of traffic.
	breaking := streamfreq.HashString("solar eclipse live")
	for i := 0; i < windowSize; i++ {
		q := gen.Next()
		if i%20 == 0 {
			q = breaking
		}
		win.Update(q, 1)
		lat.Insert(rng.ExpFloat64() * 35) // load raises latency
	}
	fmt.Println("\nepoch 2 (breaking news, one window later):")
	show(win, phi)
	if est := win.Estimate(breaking); est < int64(0.04*windowSize) {
		log.Fatalf("breaking query estimate %d; window failed to surface it", est)
	}

	// Epoch 3: the story dies; two windows later it must be gone.
	for i := 0; i < 2*windowSize+windowSize/5; i++ {
		win.Update(gen.Next(), 1)
	}
	fmt.Println("\nepoch 3 (two windows after the story died):")
	show(win, phi)
	if est := win.Estimate(breaking); est > win.Slack() {
		log.Fatalf("stale query still estimated at %d (slack %d)", est, win.Slack())
	}

	p50, _ := lat.Quantile(0.5)
	p99, _ := lat.Quantile(0.99)
	fmt.Printf("\nlatency summary over %d requests: p50=%.1fms p99=%.1fms (%d tuples, %d bytes)\n",
		lat.N(), p50, p99, lat.Size(), lat.Bytes())
}

func show(win interface {
	Query(int64) []streamfreq.ItemCount
	Size() int
}, phi float64) {
	hot := win.Query(int64(phi * float64(win.Size())))
	fmt.Printf("  %d queries above %.0f%% of the window\n", len(hot), 100*phi)
	for i, ic := range hot {
		if i >= 5 {
			fmt.Printf("  ... (%d more)\n", len(hot)-5)
			break
		}
		fmt.Printf("  %#-18x %d\n", uint64(ic.Item), ic.Count)
	}
}
