package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"rcoe/internal/harness"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// ckptOptions is testOptions on YCSB-A, so checkpoints carry writes.
func ckptOptions() Options {
	opts := testOptions()
	opts.Workload = workload.YCSBA
	return opts
}

// shardImageSHA256 is the SHA-256 of shard 0's checkpoint after 16
// rounds of ckptOptions (1,431,661 bytes: preload done, 14 operations
// acked). Like the rcoe-snap save golden, it pins the image format, and
// here also the node state a cluster round produces, across commits.
const shardImageSHA256 = "be161d8811ce7e8769157e1239a0d2300c8da346db65a87e6eab95f77db5a25e"

func TestCheckpointFormatGolden(t *testing.T) {
	c, err := New(ckptOptions())
	if err != nil {
		t.Fatal(err)
	}
	for c.Rounds() < 16 {
		c.Step()
	}
	if err := c.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	img := c.shards[0].lastCkpt
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != shardImageSHA256 {
		t.Fatalf("shard checkpoint changed: %d bytes, sha256 %s, want %s", len(img), got, shardImageSHA256)
	}
}

// restoredResave boots a fresh node, restores img into it and returns
// the node and its re-serialized state.
func restoredResave(t *testing.T, c *Cluster, img []byte) ([]byte, *harness.Node) {
	t.Helper()
	node, err := c.bootNode()
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Restore(node, img); err != nil {
		t.Fatal(err)
	}
	again, err := snapshot.Save(node)
	if err != nil {
		t.Fatal(err)
	}
	return again, node
}

// TestCheckpointBufferReuse drives one shard through checkpoint →
// failover → checkpoint → checkpoint → failover. The second checkpoint
// after the first failover is serialized into the spare buffer, which is
// the image the running node was restored from, so any state a restore
// kept as a view into its image would be overwritten under it. Each
// checkpoint must also leave the previous image untouched: it is the
// fallback if the save fails.
func TestCheckpointBufferReuse(t *testing.T) {
	opts := ckptOptions()
	opts.Operations = 90
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	sh := c.shards[victim]
	serve := func(n uint64) {
		for target := c.OpsDone() + n; c.OpsDone() < target && !c.Done(); {
			c.Step()
		}
	}
	checkpoint := func() []byte {
		t.Helper()
		prev := sh.lastCkpt
		keep := bytes.Clone(prev)
		if err := c.Checkpoint(victim); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prev, keep) {
			t.Fatal("checkpoint overwrote the previous image in place")
		}
		if len(sh.replay) != 0 {
			t.Fatalf("replay log holds %d writes after a checkpoint", len(sh.replay))
		}
		return sh.lastCkpt
	}
	for !c.LoadPhaseDone() {
		c.Step()
	}
	serve(10)

	img1 := checkpoint()
	copy1 := bytes.Clone(img1)
	again, probe := restoredResave(t, c, img1)
	if !bytes.Equal(again, img1) {
		t.Fatal("re-saving a just-restored node differs from its source image")
	}
	serve(10)
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}

	serve(10)
	img2 := checkpoint()
	serve(10)
	img3 := checkpoint()
	if &img3[0] != &img1[0] {
		t.Fatal("third checkpoint did not reuse the spare image")
	}
	if bytes.Equal(img3, copy1) {
		t.Fatal("spare image was not overwritten; the test exercises nothing")
	}
	if again, err := snapshot.Save(probe); err != nil || !bytes.Equal(again, copy1) {
		t.Fatalf("node restored from an image changed when the image was reused (err %v)", err)
	}
	if &img2[0] == &img3[0] {
		t.Fatal("checkpoint wrote into the latest image")
	}

	serve(10)
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lost, err := c.VerifyAcked()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("lost %d acknowledged writes", lost)
	}
	if got := c.Snapshot().Shards[victim].Failovers; got != 2 {
		t.Fatalf("victim failovers = %d, want 2", got)
	}
}

// TestCheckpointSteadyStateAllocs guards the one-buffer checkpoint: once
// a shard holds two images, a checkpoint serializes into the spare and
// allocates only small bookkeeping, never an image-sized buffer.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	c, err := New(ckptOptions())
	if err != nil {
		t.Fatal(err)
	}
	for c.Rounds() < 16 {
		c.Step()
	}
	ckpt := func() {
		if err := c.Checkpoint(0); err != nil {
			t.Fatal(err)
		}
	}
	ckpt() // the first image; AllocsPerRun's warm-up call takes the spare
	allocs := testing.AllocsPerRun(4, ckpt)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	for i := 0; i < runs; i++ {
		ckpt()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	size := uint64(len(c.shards[0].lastCkpt))
	t.Logf("steady-state checkpoint: %.0f allocs, %d bytes, image %d bytes", allocs, perOp, size)
	if perOp >= size/8 {
		t.Fatalf("steady-state checkpoint allocates %d bytes per call, image is %d bytes", perOp, size)
	}
	if allocs > 200 {
		t.Fatalf("steady-state checkpoint makes %.0f allocations", allocs)
	}
}

// BenchmarkClusterCheckpoint times one steady-state shard checkpoint on
// a 4-shard LC-DMR YCSB-A cluster after preload and some run-phase
// traffic.
func BenchmarkClusterCheckpoint(b *testing.B) {
	opts := ckptOptions()
	opts.Shards = 4
	opts.Records = 2_000
	opts.Operations = 4_000
	c, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	for !c.LoadPhaseDone() || c.OpsDone() < opts.Operations/2 {
		c.Step()
	}
	for i := 0; i < 2; i++ {
		if err := c.Checkpoint(0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(c.shards[0].lastCkpt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Checkpoint(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}
