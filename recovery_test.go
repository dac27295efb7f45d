package streamfreq

// Crash-recovery fidelity, registry-wide: run every algorithm behind
// the durability layer, kill it without warning (no Close, WAL torn at
// an arbitrary byte offset), recover, and require the recovered summary
// to be bit-identical — compared by Encode, which
// TestEncodeDeterministicRegistry makes meaningful — to a fresh summary
// fed exactly the durable prefix with the original batch boundaries.
// This is the paper's long-lived-infrastructure scenario: restarting an
// ISP-side summary must put it at some true point of its own past, not
// merely near one.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/persist"
	"streamfreq/internal/prng"
	"streamfreq/internal/zipf"
)

// crashStream builds the workload as uneven batches, the unit the WAL
// logs and therefore the unit recovery can be truncated to.
func crashStream(t testing.TB) [][]Item {
	t.Helper()
	g, err := zipf.NewGenerator(1<<13, 1.1, 0x5EED5, true)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stream(24_000)
	sizes := []int{1024, 1, 4096, 257, 2048}
	var batches [][]Item
	for i := 0; len(s) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(s) {
			n = len(s)
		}
		batches = append(batches, s[:n])
		s = s[n:]
	}
	return batches
}

// lastSegment returns the path of the highest-sequence WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs) // zero-padded sequence numbers sort correctly
	return segs[len(segs)-1]
}

func marshalState(t *testing.T, target persist.Target) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range target.SnapshotBarrier(nil) {
		blob, err := c.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(blob)
	}
	return buf.Bytes()
}

// checkCrashRecovery runs one kill-at-arbitrary-offset round for one
// target factory and one truncation draw; the reference is a fresh
// target fed the durable prefix.
func checkCrashRecovery(t *testing.T, algo string, mkTarget func() persist.Target, cutSeed uint64) {
	t.Helper()
	checkCrashRecoveryRef(t, algo, mkTarget, mkTarget, cutSeed)
}

// checkCrashRecoveryRef is checkCrashRecovery with the reference that
// is fed the durable prefix built by mkRef.
func checkCrashRecoveryRef(t *testing.T, algo string, mkTarget, mkRef func() persist.Target, cutSeed uint64) {
	t.Helper()
	batches := crashStream(t)
	dir := t.TempDir()
	opts := persist.Options{Dir: dir, Algo: algo, Fsync: persist.FsyncAlways, Decode: Decode}

	// Original run: recover (fresh), wire the WAL, ingest with a
	// checkpoint partway, then crash — no Close, no final checkpoint.
	orig := mkTarget()
	st, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(orig); err != nil {
		t.Fatal(err)
	}
	orig.PersistTo(st)
	ckptAt := 2 * len(batches) / 5
	for _, b := range batches[:ckptAt] {
		orig.UpdateBatch(b)
	}
	if _, err := st.Checkpoint(orig); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for _, b := range batches[ckptAt:] {
		orig.UpdateBatch(b)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	// The crash: tear the live segment at an arbitrary offset past its
	// 24-byte header.
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const header = 24
	span := fi.Size() - header
	if span <= 0 {
		t.Fatalf("segment %s has no record bytes to tear", path)
	}
	cut := header + int64(prng.New(cutSeed).Uint64n(uint64(span)))
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh target.
	rec := mkTarget()
	st2, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := st2.Recover(rec)
	if err != nil {
		t.Fatalf("recovery after tear at offset %d: %v", cut, err)
	}
	defer st2.Close()

	// The durable prefix is the checkpointed batches plus every WAL
	// record that survived the tear, in order — recovery can never hold
	// more than was written, nor less than was durable.
	durable := ckptAt + stats.ReplayedRecords
	if durable > len(batches) {
		t.Fatalf("recovered %d batches, only %d were ever ingested", durable, len(batches))
	}
	fresh := mkRef()
	for _, b := range batches[:durable] {
		fresh.UpdateBatch(b)
	}
	if rec.LiveN() != fresh.LiveN() || rec.LiveN() != stats.RecoveredN {
		t.Fatalf("recovered N=%d (stats %d), durable prefix has %d", rec.LiveN(), stats.RecoveredN, fresh.LiveN())
	}
	if !bytes.Equal(marshalState(t, rec), marshalState(t, fresh)) {
		t.Fatalf("recovered state is not bit-identical to the durable prefix (tear at %d, %d/%d batches durable)",
			cut, durable, len(batches))
	}

	// Observational spot check at the φn operating point, on top of the
	// byte-level identity.
	n := fresh.LiveN()
	threshold := n / 200 // φ = 0.005
	if threshold < 1 {
		threshold = 1
	}
	gq, wq := rec.Query(threshold), fresh.Query(threshold)
	if len(gq) != len(wq) {
		t.Fatalf("Query(φn): %d items recovered vs %d fresh", len(gq), len(wq))
	}
	for i := range wq {
		if gq[i] != wq[i] {
			t.Fatalf("Query(φn)[%d] = %+v, want %+v", i, gq[i], wq[i])
		}
	}
}

// TestCrashRecoveryRegistry is the acceptance property over the full
// registry, each algorithm torn at two independently drawn offsets.
func TestCrashRecoveryRegistry(t *testing.T) {
	const phi, seed = 0.0025, 42
	for _, algo := range Algorithms() {
		for round := uint64(0); round < 2; round++ {
			t.Run(fmt.Sprintf("%s/tear-%d", algo, round), func(t *testing.T) {
				checkCrashRecovery(t, algo, func() persist.Target {
					return core.NewConcurrent(MustNew(algo, phi, seed))
				}, 0xABCD00+round*977+uint64(len(algo)))
			})
		}
	}
}

// TestCrashRecoveryWindowed runs the kill-at-arbitrary-offset property
// through the sliding-window summary, pinning the expiring-block
// durability contract: the checkpoint holds only the live ring (WN01),
// the WAL tail's batch records reconstruct block boundaries (a pure
// function of stream position), and the recovered window re-encodes
// bit-identically to a fresh window fed exactly the durable prefix —
// including the blocks that expired before the crash, which are absent
// from both.
// TestCrashRecoveryGK runs the kill-at-arbitrary-offset property
// through the quantile summary: the GK01 checkpoint carries the
// compression phase (sinceCompress), so a recovered summary replaying
// the WAL tail re-encodes bit-identically to a fresh summary fed
// exactly the durable prefix — the same contract the frequency
// summaries honour.
func TestCrashRecoveryGK(t *testing.T) {
	for round := uint64(0); round < 2; round++ {
		t.Run(fmt.Sprintf("GK/tear-%d", round), func(t *testing.T) {
			checkCrashRecovery(t, "GK", func() persist.Target {
				return core.NewConcurrent(NewQuantile(0.01))
			}, 0x6B17+round)
		})
	}
}

func TestCrashRecoveryWindowed(t *testing.T) {
	for round := uint64(0); round < 2; round++ {
		t.Run(fmt.Sprintf("SSW/tear-%d", round), func(t *testing.T) {
			checkCrashRecovery(t, "SSW", func() persist.Target {
				w, err := NewWindowed(4096, 8, 401)
				if err != nil {
					t.Fatal(err)
				}
				return core.NewConcurrent(w)
			}, 0x51EE9+round)
		})
	}
}
