// Benchmarks regenerating the paper's evaluation artifacts, one target per
// table/figure (see DESIGN.md §4 for the index):
//
//	BenchmarkFigure1            — F1, the correlation-shift illustration
//	BenchmarkShowcase1          — SC1, archive replay with historic events
//	BenchmarkShowcase2          — SC2, live SIGMOD/Athens time lapse
//	BenchmarkShowcase3          — SC3, personalization
//	BenchmarkBaselineComparison — B1, enBlogue vs burst detection
//	BenchmarkThroughput*        — P1, engine docs/sec and plan sharing
//	BenchmarkAblation*          — A1, measure/predictor/half-life sweeps
//	BenchmarkEntityTagging      — E1, tagger accuracy workload
//
// Run: go test -bench=. -benchmem
package enblogue_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/experiments"
	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/shift"
	"enblogue/internal/source"
	"enblogue/internal/stream"
	"enblogue/internal/tier"
)

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunF1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShowcase1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSC1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShowcase2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSC2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShowcase3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSC3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunB1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDocs caches the throughput workload across benchmark targets.
var benchDocs []source.Document

func throughputDocs(b *testing.B) []*stream.Item {
	b.Helper()
	if benchDocs == nil {
		benchDocs = experiments.GenerateArchiveCached(source.ArchiveConfig{
			Seed: 99, Start: time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC),
			Days: 10, DocsPerDay: 1500,
		})
	}
	items := make([]*stream.Item, len(benchDocs))
	for i := range benchDocs {
		items[i] = benchDocs[i].Item()
	}
	return items
}

// BenchmarkThroughputEngine measures raw engine consumption (P1's core
// rows) at the reference seed count.
func BenchmarkThroughputEngine(b *testing.B) {
	items := throughputDocs(b)
	for _, seeds := range []int{10, 50, 200} {
		b.Run(benchName("seeds", seeds), func(b *testing.B) {
			e := core.New(core.Config{SeedCount: seeds})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Consume(items[i%len(items)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// BenchmarkThroughputBatched measures steady-state engine docs/sec across
// the GOMAXPROCS × batch-size matrix (P1's batching rows). Documents are
// handed to the engine through Engine.ConsumeBatch in slices of the given
// size — one lock acquisition and one tick check per batch instead of per
// document — so batch-1 is the per-document Consume path and larger
// batches show the amortisation. Unlike the cyclic benchmarks above, each
// pass over the workload is re-timestamped one window-span later, so
// evaluation ticks keep firing at the stream's real cadence no matter how
// large b.N grows: the number measured includes tick cost. Rankings are
// bit-identical across batch sizes (see TestConsumeBatchMatchesSerial), so
// the docs/s column is the only thing that moves.
func BenchmarkThroughputBatched(b *testing.B) {
	items := throughputDocs(b)
	span := items[len(items)-1].Time.Sub(items[0].Time) + time.Hour
	for _, procs := range []int{1, 2} {
		for _, batch := range []int{1, 64, 4096} {
			name := fmt.Sprintf("procs-%d/batch-%d", procs, batch)
			b.Run(name, func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				e := core.New(core.Config{SeedCount: 200})
				buf := make([]stream.Item, batch)
				ptrs := make([]*stream.Item, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; {
					n := min(batch, b.N-i)
					for j := 0; j < n; j++ {
						idx := i + j
						buf[j] = *items[idx%len(items)]
						buf[j].Time = buf[j].Time.Add(time.Duration(idx/len(items)) * span)
						ptrs[j] = &buf[j]
					}
					e.ConsumeBatch(ptrs[:n])
					i += n
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
			})
		}
	}
}

// BenchmarkThroughputSharedPlans measures the multi-plan runner with shared
// vs private operator prefixes (P1's sharing comparison).
func BenchmarkThroughputSharedPlans(b *testing.B) {
	if _, err := experiments.RunP1(io.Discard); err != nil {
		b.Fatal(err)
	}
	// RunP1 prints docs/sec itself in table form; the benchmark target
	// exists so `go test -bench` regenerates P1 alongside the others.
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunP1(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMeasures times one engine pass per correlation measure
// over the archive workload (A1's measure dimension).
func BenchmarkAblationMeasures(b *testing.B) {
	items := throughputDocs(b)
	for _, m := range pairs.AllMeasures() {
		b.Run(m.String(), func(b *testing.B) {
			e := core.New(core.Config{Measure: m})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Consume(items[i%len(items)])
			}
		})
	}
}

// BenchmarkAblationPredictors times one engine pass per predictor (A1's
// predictor dimension).
func BenchmarkAblationPredictors(b *testing.B) {
	items := throughputDocs(b)
	for _, k := range predict.AllKinds() {
		b.Run(k.String(), func(b *testing.B) {
			e := core.New(core.Config{Predictor: k})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Consume(items[i%len(items)])
			}
		})
	}
}

// BenchmarkAblationFull runs the complete A1 quality sweep (detection and
// precision per configuration).
func BenchmarkAblationFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEntityTagging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s-%d", prefix, n)
}

// tieredDoc is one document of the accuracy workload below.
type tieredDoc struct {
	at   time.Time
	tags []string
}

// tieredAccuracyDocs builds the workload for BenchmarkTieredAccuracy: a
// front-loaded background of 600 independent pairs whose total counts ramp
// linearly from 4 to 27, all posted in the first 20 hours, plus a cohort
// of 60 "event" pairs that trickle in 4-document bursts every six hours
// across the whole 40-hour stream (true count ~28, above every background
// pair). The front-loading makes the capped tracker's eviction cut rise to
// its final height while the event pairs are still small, which is the
// regime the tier exists for: an event pair's between-burst accumulation
// never catches the cut, so the eviction-only tracker forgets it again and
// again and its final count reflects only the last burst or two — while
// the sketch tail accumulates the demoted mass across the whole stream and
// promotes the pair back once its estimate clears the admission floor.
// Fully deterministic, and the whole stream fits inside one 48h window so
// windowed decay never confounds the recall numbers.
var tieredDocsCache []tieredDoc

func tieredAccuracyDocs() []tieredDoc {
	if tieredDocsCache != nil {
		return tieredDocsCache
	}
	start := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	bgSpan := 20 * time.Hour
	var docs []tieredDoc
	for i := 0; i < 600; i++ {
		n := 4 + i/25 // occurrences, evenly spaced over the first half
		step := bgSpan / time.Duration(n)
		tags := []string{fmt.Sprintf("bgA%04d", i), fmt.Sprintf("bgB%04d", i)}
		for j := 0; j < n; j++ {
			at := start.Add(time.Duration(j)*step + time.Duration(i)*time.Second)
			docs = append(docs, tieredDoc{at: at, tags: tags})
		}
	}
	for h := 0; h < 40; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		for e := 0; e < 60; e++ {
			if h%6 != e%6 {
				continue
			}
			tags := []string{fmt.Sprintf("evA%02d", e), fmt.Sprintf("evB%02d", e)}
			for r := 0; r < 4; r++ {
				docs = append(docs, tieredDoc{
					at:   hour.Add(time.Duration((e*997+r)%60)*time.Minute + 30*time.Second),
					tags: tags,
				})
			}
		}
	}
	sort.Slice(docs, func(i, j int) bool {
		if !docs[i].at.Equal(docs[j].at) {
			return docs[i].at.Before(docs[j].at)
		}
		return docs[i].tags[0] < docs[j].tags[0]
	})
	tieredDocsCache = docs
	return docs
}

// runTieredTracker replays the accuracy workload through a pair tracker
// at the given pair budget (0 = effectively unbounded), promoting from the
// tail once per stream hour — the cadence the engine's evaluation tick
// gives it in production.
func runTieredTracker(maxPairs int, tail *tier.Config, docs []tieredDoc) *pairs.Tracker {
	tr := pairs.NewTracker(pairs.Config{
		Buckets:    48,
		Resolution: time.Hour,
		MaxPairs:   maxPairs,
		SweepEvery: 256,
		Tail:       tail,
	})
	lastHour := -1
	batch := make([]pairs.BatchDoc, 1)
	for i := range docs {
		batch[0] = pairs.BatchDoc{Time: docs[i].at, Tags: docs[i].tags}
		tr.ObserveBatch(batch, nil)
		if h := int(docs[i].at.Sub(docs[0].at) / time.Hour); h != lastHour {
			lastHour = h
			tr.PromoteTail()
		}
	}
	tr.PromoteTail()
	return tr
}

// topTieredPairs returns the k tracked pairs with the largest windowed
// co-occurrence, ties broken by key order.
func topTieredPairs(tr *pairs.Tracker, k int) map[pairs.Key]bool {
	keys := tr.Keys()
	counts := make(map[pairs.Key]float64, len(keys))
	for _, key := range keys {
		counts[key] = tr.Cooccurrence(key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i].Less(keys[j])
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	top := make(map[pairs.Key]bool, len(keys))
	for _, key := range keys {
		top[key] = true
	}
	return top
}

// tieredBytes estimates the tracker's pair-tracking footprint from its
// configuration: the exact tier's arena rows and index entries plus, when
// the tail is on, the two Count-Min generations and both heavy-hitter
// summaries. An arithmetic model rather than a heap measurement so the
// bytes/pair column is deterministic across runs and platforms.
func tieredBytes(maxPairs, buckets int, tail *tier.Config) float64 {
	const perPairOverhead = 64 // index map entry + key + slot bookkeeping
	exact := float64(maxPairs) * float64(buckets*8+perPairOverhead)
	if tail == nil {
		return exact
	}
	width := math.Ceil(math.E / tail.Epsilon)
	depth := math.Ceil(math.Log(1 / tail.Delta))
	return exact + 2*width*depth*8 + float64(tail.TopK)*2*32
}

// BenchmarkTieredAccuracy is the tiered memory model's accuracy/footprint
// matrix (ISSUE 10): for each pair budget it replays the bursty workload
// through an eviction-only tracker and through sketch-tailed trackers at
// two epsilons, then scores each against the top-100 pairs of an unbounded
// exact run over the same stream. recall@100 is the fraction of the true
// top-100 the capped tracker still ranks in its own top-100; bytes/pair
// spreads the configured footprint over the stream's distinct-pair
// vocabulary. The tail must buy recall at small budgets for a few percent
// of the exact tier's bytes — scripts/bench.sh records the matrix in
// BENCH_<date>.json alongside the throughput trajectory.
func BenchmarkTieredAccuracy(b *testing.B) {
	const k = 100
	docs := tieredAccuracyDocs()
	truth := runTieredTracker(0, nil, docs)
	truthTop := topTieredPairs(truth, k)
	vocab := len(truth.Keys())

	tails := []struct {
		name string
		cfg  *tier.Config
	}{
		{"exact-only", nil},
		{"eps-0.01", &tier.Config{Epsilon: 0.01, Delta: 0.01, TopK: 1024}},
		{"eps-0.001", &tier.Config{Epsilon: 0.001, Delta: 0.01, TopK: 1024}},
	}
	for _, maxPairs := range []int{150, 400} {
		for _, tl := range tails {
			b.Run(fmt.Sprintf("max-%d/%s", maxPairs, tl.name), func(b *testing.B) {
				var tr *pairs.Tracker
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr = runTieredTracker(maxPairs, tl.cfg, docs)
				}
				got := topTieredPairs(tr, k)
				hits := 0
				for key := range got {
					if truthTop[key] {
						hits++
					}
				}
				b.ReportMetric(float64(hits)/float64(k), "recall@100")
				b.ReportMetric(tieredBytes(maxPairs, 48, tl.cfg)/float64(vocab), "bytes/pair")
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/s")
			})
		}
	}
}

// BenchmarkBroadcastSubscribers measures per-tick dispatch cost across the
// subscription index as the subscriber population and matched fraction
// sweep: matched subscribers stand on a tag that moves every tick,
// unmatched ones on tags that never appear in the ranking. With inverted
// tag→subscriber dispatch the per-tick cost tracks the matched count, not
// the population — the 1%-matched column must be ≥10× cheaper than the
// 100%-matched (broadcast-equivalent) column, and unmatched subscribers
// contribute zero work and zero allocations (pinned separately by
// TestDispatchUnmatchedZeroAllocs).
func BenchmarkBroadcastSubscribers(b *testing.B) {
	for _, subs := range []int{100, 10_000, 1_000_000} {
		for _, pct := range []int{1, 10, 100} {
			tier := fmt.Sprintf("subs-%d", subs)
			if subs >= 1_000_000 {
				tier = fmt.Sprintf("subs-%d-sim", subs)
			}
			b.Run(fmt.Sprintf("%s/matched-%d", tier, pct), func(b *testing.B) {
				e := core.New(core.Config{})
				defer e.Close()
				matched := subs * pct / 100
				for i := 0; i < subs; i++ {
					if i < matched {
						e.Subscribe(nil, core.SubTags("bench-hot"), core.SubBuffer(1))
					} else {
						// Cold tags are shared across subscribers: posting-list
						// size does not matter for untouched tags, only that
						// they never move.
						e.Subscribe(nil, core.SubTags(fmt.Sprintf("bench-cold-%d", i%1024)), core.SubBuffer(1))
					}
				}
				// A realistic top-k ranking: the hot pair plus stable filler.
				topics := []shift.Topic{{Pair: pairs.MakeKey("bench-hot", "bench-partner"), Score: 1}}
				for i := 0; i < 9; i++ {
					topics = append(topics, shift.Topic{
						Pair:  pairs.MakeKey(fmt.Sprintf("bench-fill-%d", i), "bench-partner"),
						Score: 0.5,
					})
				}
				r := core.Ranking{
					At:     time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC),
					Seeds:  []string{"bench-hot"},
					Topics: topics,
				}
				// Warm the dispatcher scratch and deliver the initial views.
				for i := 0; i < 2; i++ {
					r.At = r.At.Add(time.Second)
					r.Topics[0].Score += 1
					e.PublishRanking(r)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.At = r.At.Add(time.Second)
					r.Topics[0].Score += 1
					e.PublishRanking(r)
				}
				b.StopTimer()
				b.ReportMetric(float64(matched)*float64(b.N)/b.Elapsed().Seconds(), "notifs/s")
			})
		}
	}
}
