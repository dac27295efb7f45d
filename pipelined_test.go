package streamfreq

// Property wall for the pipelined ingest plane (core.Pipelined): the
// batched==scalar determinism and the crash-recovery fidelity must
// survive staged rings. The load-bearing claim is ordering — per-shard
// apply order equals global claim order — so the wall compares states
// by Encode bytes, not by query answers, against seqScatter, a
// sequential reference that shares no code with the ring path.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/persist"
)

// seqScatter is the sequential reference for the sharded plane: plain
// per-shard summaries, each batch split by the shard hash and applied
// shard by shard in order — no rings, drainers, claim cursor, or
// locks. It satisfies persist.Target so a log can be recovered into
// it. Single-goroutine only.
type seqScatter struct {
	shards []Summary
}

func newSeqScatter(shards int, factory func() Summary) *seqScatter {
	s := &seqScatter{shards: make([]Summary, shards)}
	for i := range s.shards {
		s.shards[i] = factory()
	}
	return s
}

// shardOf is the plane's item-to-shard hash (the SplitMix64 finalizer
// over a power-of-two shard count), restated so the reference shares
// no code with internal/core. Per-shard checkpoint blobs restore only
// under the same partition, so the hash is part of the on-disk format
// and a change to core's copy must fail these walls.
func shardOf(x Item, shards int) int {
	v := uint64(x)
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	v ^= v >> 31
	return int(v & uint64(shards-1))
}

func (s *seqScatter) UpdateBatch(items []Item) {
	parts := make([][]Item, len(s.shards))
	for _, x := range items {
		i := shardOf(x, len(s.shards))
		parts[i] = append(parts[i], x)
	}
	for i, part := range parts {
		if len(part) > 0 {
			UpdateAll(s.shards[i], part)
		}
	}
}

func (s *seqScatter) Update(x Item, count int64) {
	s.shards[shardOf(x, len(s.shards))].Update(x, count)
}
func (s *seqScatter) Estimate(x Item) int64    { return s.shards[shardOf(x, len(s.shards))].Estimate(x) }
func (s *seqScatter) Name() string             { return "seq-scatter" }
func (s *seqScatter) LiveN() int64             { return s.N() }
func (s *seqScatter) PersistTo(core.Persister) {}

func (s *seqScatter) Query(threshold int64) []ItemCount {
	var out []ItemCount
	for _, sh := range s.shards {
		out = append(out, sh.Query(threshold)...)
	}
	core.SortByCountDesc(out)
	return out
}

func (s *seqScatter) N() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.N()
	}
	return n
}

func (s *seqScatter) Bytes() int {
	var b int
	for _, sh := range s.shards {
		b += sh.Bytes()
	}
	return b
}

// SnapshotBarrier returns the live shards, not clones: the reference
// is only ever marshalled or recovered into, never checkpointed.
func (s *seqScatter) SnapshotBarrier(cut func(n int64)) []Summary {
	if cut != nil {
		cut(s.N())
	}
	return s.shards
}

func (s *seqScatter) RestoreState(shards []Summary) error {
	if len(shards) != len(s.shards) {
		return fmt.Errorf("seqScatter restore needs %d shards, got %d", len(s.shards), len(shards))
	}
	copy(s.shards, shards)
	return nil
}

// unevenBatches slices stream at deliberately irregular boundaries,
// the unit both the WAL and the staging rings preserve.
func unevenBatches(stream []Item) [][]Item {
	sizes := []int{512, 7, 1024, 129, 2048, 33}
	var batches [][]Item
	for i := 0; len(stream) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(stream) {
			n = len(stream)
		}
		batches = append(batches, stream[:n])
		stream = stream[n:]
	}
	return batches
}

// TestPipelinedMatchesSequentialRegistry is the acceptance property
// over the full registry: single-writer pipelined ingest is
// bit-identical (per-shard Encode bytes) to the sequential scatter with
// the same batch boundaries.
func TestPipelinedMatchesSequentialRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("property wall: full registry sweep")
	}
	const phi, seed, shards = 0.001, 20080824, 4
	streams := equivStreams(t)
	for _, algo := range Algorithms() {
		algo := algo
		for _, name := range []string{"skewed", "flat", "churn"} {
			stream := streams[name]
			t.Run(algo+"/"+name, func(t *testing.T) {
				factory := func() core.Summary { return MustNew(algo, phi, seed) }
				seq := newSeqScatter(shards, factory)
				pip := core.NewPipelined(shards, factory)
				defer pip.Close()
				for _, b := range unevenBatches(stream) {
					seq.UpdateBatch(b)
					pip.UpdateBatch(b)
				}
				if !bytes.Equal(marshalState(t, seq), marshalState(t, pip)) {
					t.Fatalf("%s/%s: pipelined shard state is not bit-identical to the sequential scatter", algo, name)
				}
			})
		}
	}
}

// TestPipelinedConcurrentWritersCommutative runs many writers with
// arbitrary claim interleavings against the purely linear sketches
// (CMH, CGT — counter arrays with no tracking heap), whose per-shard
// state is a sum and therefore order-invariant: whatever order the
// plane applied, the final bytes must equal the sequential run's.
// (Order-dependent algorithms — anything with a heap or eviction — are
// covered by the single-writer bit-identity above and the op-log
// ordering test in internal/core.)
func TestPipelinedConcurrentWritersCommutative(t *testing.T) {
	const phi, seed, shards, writers = 0.001, 20080824, 4, 8
	stream := equivStreams(t)["skewed"]
	batches := unevenBatches(stream)
	for _, algo := range []string{"CMH", "CGT"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			factory := func() core.Summary { return MustNew(algo, phi, seed) }
			seq := newSeqScatter(shards, factory)
			for _, b := range batches {
				seq.UpdateBatch(b)
			}
			pip := core.NewPipelined(shards, factory)
			defer pip.Close()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(batches); i += writers {
						pip.UpdateBatch(batches[i])
					}
				}(w)
			}
			wg.Wait()
			if !bytes.Equal(marshalState(t, seq), marshalState(t, pip)) {
				t.Fatalf("%s: concurrent pipelined ingest diverged from the sequential state", algo)
			}
		})
	}
}

// TestCrashRecoveryPipelined runs the kill-at-arbitrary-offset wall
// through the pipelined plane: WAL order equals claim order equals
// apply order, so a torn log still replays to a state bit-identical to
// the sequential scatter of the durable prefix. Two algorithms:
// order-dependent SSH and sketch CM.
func TestCrashRecoveryPipelined(t *testing.T) {
	for _, algo := range []string{"SSH", "CM"} {
		algo := algo
		for round := uint64(0); round < 2; round++ {
			t.Run(fmt.Sprintf("%s-4shards/tear-%d", algo, round), func(t *testing.T) {
				factory := func() core.Summary { return MustNew(algo, 0.0025, 42) }
				checkCrashRecoveryRef(t, algo, func() persist.Target {
					return core.NewPipelined(4, factory)
				}, func() persist.Target {
					return newSeqScatter(4, factory)
				}, 0xBEEF+round*131+uint64(len(algo)))
			})
		}
	}
}

// TestPipelinedCheckpointUnderConcurrentIngest checkpoints a live,
// multi-writer pipelined plane repeatedly: every checkpoint cut must
// match the WAL position exactly (persist.Checkpoint latches an error
// otherwise), and the final log — last checkpoint plus WAL tail — must
// reproduce the plane's state byte for byte, both when restarted into
// a fresh plane and when replayed into the sequential scatter.
func TestPipelinedCheckpointUnderConcurrentIngest(t *testing.T) {
	const shards, writers, rounds, batch = 4, 4, 60, 97
	dir := t.TempDir()
	opts := persist.Options{Dir: dir, Algo: "SSH", Fsync: persist.FsyncNever, Decode: Decode}
	factory := func() core.Summary { return MustNew("SSH", 0.0025, 42) }

	p := core.NewPipelined(shards, factory)
	st, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(p); err != nil {
		t.Fatal(err)
	}
	p.PersistTo(st)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]Item, batch)
			for i := 0; i < rounds; i++ {
				for j := range buf {
					buf[j] = Item(uint64(w)<<32 | uint64(i*batch+j)%4096)
				}
				p.UpdateBatch(buf)
			}
		}(w)
	}
	for c := 0; c < 8; c++ {
		if _, err := st.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint %d under concurrent ingest: %v", c, err)
		}
	}
	wg.Wait()
	// A post-checkpoint tail, so the final log always has WAL records
	// for the replays below to apply in order.
	tail := make([]Item, 4*batch)
	for j := range tail {
		tail[j] = Item(j % 512)
	}
	p.UpdateBatch(tail)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec := core.NewPipelined(shards, factory)
	st2, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats, err := st2.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(writers*rounds*batch + len(tail))
	if stats.RecoveredN != want || rec.LiveN() != want {
		t.Fatalf("recovered n=%d (LiveN %d), want %d", stats.RecoveredN, rec.LiveN(), want)
	}
	if !bytes.Equal(marshalState(t, p), marshalState(t, rec)) {
		t.Fatal("restart from the final log did not reproduce the live plane's state")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	seq := newSeqScatter(shards, factory)
	st3, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if _, err := st3.Recover(seq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalState(t, p), marshalState(t, seq)) {
		t.Fatal("sequential replay of the final log did not reproduce the live plane's state")
	}
}
