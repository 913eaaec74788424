package enblogue_test

import (
	"testing"
	"time"

	"enblogue"
)

// Durability cost benchmarks (recorded by scripts/bench.sh alongside the
// throughput matrix):
//
//	BenchmarkWALAppend       — steady-state ingest docs/s with the WAL off
//	                           vs. on; the delta is the per-document price
//	                           of durability (bounded at ≤1 alloc/doc by
//	                           TestWALAppendSteadyStateAllocs)
//	BenchmarkSnapshotRestore — full snapshot write and full recovery of a
//	                           ticked, multi-thousand-document engine

// BenchmarkWALAppend measures the ingest path with and without the WAL.
// Each pass over the workload is re-timestamped one span later so ticks
// keep firing at the stream's real cadence, same as ThroughputSerial.
func BenchmarkWALAppend(b *testing.B) {
	items := throughputDocs(b)
	span := items[len(items)-1].Time.Sub(items[0].Time) + time.Hour
	for _, wal := range []bool{false, true} {
		name := "wal-off"
		var opts []enblogue.Option
		if wal {
			name = "wal-on"
			opts = append(opts, enblogue.WithDurability(b.TempDir(),
				enblogue.SnapshotEvery(-1)))
		}
		b.Run(name, func(b *testing.B) {
			e := enblogue.New(opts...)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := *items[i%len(items)]
				it.Time = it.Time.Add(time.Duration(i/len(items)) * span)
				e.Consume(&it)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// BenchmarkSnapshotRestore measures the two halves of the durability
// round trip over a 15k-document, multi-tick engine state: writing one
// full snapshot (state export under the engine lock + canonical encode +
// temp-file/rename), and recovering a fresh engine from it.
func BenchmarkSnapshotRestore(b *testing.B) {
	items := throughputDocs(b)
	dir := b.TempDir()
	e := enblogue.New(enblogue.WithDurability(dir, enblogue.SnapshotEvery(-1)))
	e.ConsumeBatch(items)

	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Leave exactly one final snapshot so the restore half measures
	// snapshot decode + state restore, not WAL replay.
	if err := e.Snapshot(); err != nil {
		b.Fatal(err)
	}
	e.Close()
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := enblogue.New(enblogue.WithDurability(dir, enblogue.SnapshotEvery(-1)))
			if got, want := r.DocsProcessed(), int64(len(items)); got != want {
				b.Fatalf("restored %d docs, want %d", got, want)
			}
			r.Close()
		}
		b.ReportMetric(float64(b.N)*float64(len(items))/b.Elapsed().Seconds(), "docs/s")
	})
}
