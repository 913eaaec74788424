// Package core wires the paper's three stages — seed tag selection,
// correlation tracking, and shift detection — into the enBlogue engine: a
// stream sink that consumes (timestamp, docId, tags, entities) tuples and
// periodically emits ranked emergent topics.
//
// The engine is event-time driven: evaluation ticks fire as the stream's
// timestamps pass tick boundaries, so archive replay ("time lapse on
// archived data") and live consumption behave identically.
//
// Each engine holds one pair tracker, one shift detector and (when enabled)
// one cold-tier tail. Documents are applied whole under the engine's
// bookkeeping lock, and every evaluation tick scores the tracked pairs
// serially through a bounded top-k heap; see DESIGN.md §3. All exported
// Engine methods are safe for concurrent use.
package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"enblogue/internal/entity"
	"enblogue/internal/intern"
	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/shift"
	"enblogue/internal/stream"
	"enblogue/internal/tagstats"
	"enblogue/internal/tier"
)

// Config parameterises an Engine. The zero value is usable: it yields the
// paper's defaults (Jaccard correlation, moving-average prediction, 2-day
// half-life, hourly ticks over a 48-hour window).
type Config struct {
	// WindowBuckets and WindowResolution define the sliding statistics
	// window for tags and pairs. Defaults: 48 buckets × 1 hour.
	WindowBuckets    int
	WindowResolution time.Duration

	// TickEvery is the evaluation period in event time. Zero means one
	// window resolution (hourly by default).
	TickEvery time.Duration

	// SeedCount is the size of the seed tag set ("we choose seed tags to
	// be popular tags"). Zero means 50.
	SeedCount int
	// SeedCriterion selects popularity (default), volatility, or hybrid.
	SeedCriterion tagstats.Criterion
	// SeedMinCount is the minimum windowed count for seed candidacy.
	// Zero means 3.
	SeedMinCount float64
	// SeedWarmupDocs bootstraps the first seed selection after this many
	// documents instead of waiting for the first tick. Zero means 100.
	SeedWarmupDocs int

	// MaxPairs caps tracked candidate pairs. Zero means 100000.
	MaxPairs int

	// TailSketch enables the tiered exact/sketch memory model: pairs
	// evicted over MaxPairs are demoted into a windowed Count-Min
	// sketch + heavy-hitter summary (internal/tier) instead of being
	// forgotten, and are promoted back — counters seeded from the
	// upper-bound estimate, flagged approximate — when their estimate
	// crosses the admission floor at tick time. Disabled by default;
	// rankings with it disabled are bit-identical to engines built before
	// the tier existed.
	TailSketch TailSketchConfig

	// Measure is the pair correlation measure. Default Jaccard.
	Measure pairs.Measure
	// DistributionMode switches correlation from set overlap to the
	// paper's information-theoretic alternative: documents represented "by
	// their entire tag sets", with pair correlation the Jensen–Shannon
	// similarity of the two tags' co-tag usage distributions. Measure is
	// ignored when set.
	DistributionMode bool
	// Predictor forecasts correlations; its error is the shift signal.
	// Default moving average.
	Predictor predict.Kind
	// PredictorConfig tunes the predictor.
	PredictorConfig predict.Config
	// HalfLife dampens past errors. Zero means shift.DefaultHalfLife (2d).
	HalfLife time.Duration
	// MinCooccurrence is the significance floor for scoring. Zero means 2.
	MinCooccurrence float64
	// UpOnly restricts shifts to correlation increases.
	UpOnly bool

	// TopK is the ranking length. Zero means 20.
	TopK int

	// UseEntities merges entity tags into the tag space ("combined with
	// regular tags to detect tag/entity mixtures as emergent topics").
	UseEntities bool
	// Tagger, when set together with UseEntities, annotates items that
	// arrive with text but no entities.
	Tagger *entity.Tagger

	// Durability enables snapshot + write-ahead-log persistence when its
	// Dir is set: prior state is recovered during New and every consumed
	// document is logged for crash recovery. See DurabilityConfig.
	Durability DurabilityConfig
}

// TailSketchConfig parameterises the cold tier under the exact pair
// tracker; see Config.TailSketch and internal/tier.
type TailSketchConfig struct {
	// Enabled turns the tier on. The remaining fields are ignored (and the
	// engine matches pre-tier behaviour exactly) when false.
	Enabled bool
	// Epsilon is the Count-Min additive-error fraction: tail estimates
	// exceed true windowed tail mass by at most Epsilon × N with
	// probability 1−Delta. Zero or out-of-range means 0.01.
	Epsilon float64
	// Delta is the Count-Min failure probability. Zero or out-of-range
	// means 0.01.
	Delta float64
	// TopK is the heavy-hitter summary capacity — the maximum number of
	// promotion candidates remembered. Zero means 512.
	TopK int
}

// normalize is the single place nonsensical configurations are repaired:
// zero and negative settings fall back to the paper's defaults, and
// mutually wedging combinations are clamped (a pair budget smaller than the
// seed set could evict every candidate the moment it is tracked). Both New
// and Hub.Open build engines exclusively from normalized configs, so no
// construction path can yield an engine that cannot tick.
func (c Config) normalize() Config {
	if c.WindowBuckets <= 0 {
		c.WindowBuckets = 48
	}
	if c.WindowResolution <= 0 {
		c.WindowResolution = time.Hour
	}
	if c.TickEvery <= 0 {
		c.TickEvery = c.WindowResolution
	}
	if c.SeedCount <= 0 {
		c.SeedCount = 50
	}
	if c.SeedMinCount <= 0 {
		c.SeedMinCount = 3
	}
	if c.SeedWarmupDocs <= 0 {
		c.SeedWarmupDocs = 100
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 100000
	}
	if c.MaxPairs < c.SeedCount {
		c.MaxPairs = c.SeedCount
	}
	if c.HalfLife <= 0 {
		c.HalfLife = shift.DefaultHalfLife
	}
	if c.MinCooccurrence <= 0 {
		c.MinCooccurrence = 2
	}
	if c.TopK <= 0 {
		c.TopK = 20
	}
	if c.TailSketch.Enabled {
		if c.TailSketch.Epsilon <= 0 || c.TailSketch.Epsilon >= 1 {
			c.TailSketch.Epsilon = 0.01
		}
		if c.TailSketch.Delta <= 0 || c.TailSketch.Delta >= 1 {
			c.TailSketch.Delta = 0.01
		}
		if c.TailSketch.TopK < 1 {
			c.TailSketch.TopK = 512
		}
	} else {
		// A disabled tier carries no settings: the zero value is part of
		// the snapshot-fingerprint identity of every pre-tier engine.
		c.TailSketch = TailSketchConfig{}
	}
	return c
}

// Ranking is one evaluation tick's output: the top-k emergent topics.
type Ranking struct {
	At     time.Time
	Seeds  []string
	Topics []shift.Topic
}

// Clone returns a deep copy of the ranking: mutating the copy's Seeds or
// Topics cannot corrupt the engine's published state or any other
// subscriber's view.
func (r Ranking) Clone() Ranking {
	r.Seeds = append([]string(nil), r.Seeds...)
	r.Topics = append([]shift.Topic(nil), r.Topics...)
	return r
}

// IDs returns the ranked pair identifiers ("tag1+tag2"), best first.
func (r Ranking) IDs() []string {
	out := make([]string, len(r.Topics))
	for i, t := range r.Topics {
		out[i] = t.Pair.String()
	}
	return out
}

// Engine is the enBlogue core: it implements stream.Sink (and
// stream.Flusher) and can therefore terminate any query plan. All exported
// methods are safe for concurrent use — a live server can drive wall-clock
// Ticks and serve CurrentRanking while an ingest goroutine Consumes.
type Engine struct {
	cfg Config

	tags    *tagstats.Tracker      // guarded by mu
	pairsTr *pairs.Tracker         // written under mu; internally locked for readers
	dist    *pairs.DistTracker     // non-nil in DistributionMode; written under mu
	det     *shift.Detector        // guarded by mu
	seeds   *tagstats.SeedSelector // internally locked

	docs atomic.Int64
	// lastSeenNano is the newest consumed event timestamp in unix nanos (0
	// before the first document). Written under mu, read lock-free so
	// LastEventTime is callable from anywhere.
	lastSeenNano atomic.Int64

	// wal and dur are the durability attachments (nil when Durability.Dir
	// is unset), assigned once during New — after recovery replay, so
	// replayed documents are not re-logged — and immutable afterwards.
	wal WALRecorder
	dur Durability

	// mu serialises ingest — the event clock, tick boundaries, tag
	// statistics and pair tracking of each document, applied whole — and
	// evaluation ticks against each other. State exports hold it too, so a
	// snapshot never catches a half-applied document.
	//
	//enblogue:lock engine 10
	mu       sync.Mutex
	nextTick time.Time
	lastTick time.Time // newest evaluation time, guards forced-Tick rewinds

	// tick holds the per-tick working set — the pair snapshot, the top-k
	// heap and the ID-keyed tag-count index — reused across ticks so a
	// steady-state evaluation pass allocates almost nothing. Only
	// tickLocked touches it, under mu.
	tick tickScratch

	// batchDocs is ConsumeBatch's pending-document buffer, reused across
	// calls. Only ConsumeBatch and flushPendingLocked touch it, under mu.
	batchDocs []pairs.BatchDoc

	// rankMu guards only the published ranking snapshot; it nests inside
	// engine (tickLocked publishes while holding mu).
	//
	//enblogue:lock rank 20
	rankMu sync.Mutex
	last   Ranking

	// broker fans every tick's ranking out to subscribers from a
	// dispatcher goroutine, outside all engine locks.
	broker *broker
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	c := cfg.normalize()
	var dist *pairs.DistTracker
	if c.DistributionMode {
		dist = pairs.NewDistTracker(pairs.Config{
			Buckets:    c.WindowBuckets,
			Resolution: c.WindowResolution,
			MaxPairs:   c.MaxPairs,
		})
	}
	tags := tagstats.NewTracker(tagstats.Config{
		Buckets:    c.WindowBuckets,
		Resolution: c.WindowResolution,
	})
	// The interning table is the engine's tag-ID domain; letting the tag
	// tracker cache resolved IDs per slot spares the evaluation tick one
	// string hash per active tag (see tagstats.SetTagIDResolver).
	tags.SetTagIDResolver(intern.Find)
	var tailCfg *tier.Config
	if c.TailSketch.Enabled {
		tailCfg = &tier.Config{
			Epsilon: c.TailSketch.Epsilon,
			Delta:   c.TailSketch.Delta,
			TopK:    c.TailSketch.TopK,
		}
	}
	e := &Engine{
		dist:   dist,
		cfg:    c,
		broker: newBroker(),
		tags:   tags,
		pairsTr: pairs.NewTracker(pairs.Config{
			Buckets:    c.WindowBuckets,
			Resolution: c.WindowResolution,
			MaxPairs:   c.MaxPairs,
			Tail:       tailCfg,
		}),
		det: shift.NewDetector(shift.Config{
			Measure:         c.Measure,
			Predictor:       c.Predictor,
			PredictorConfig: c.PredictorConfig,
			HalfLife:        c.HalfLife,
			MinCooccurrence: c.MinCooccurrence,
			UpOnly:          c.UpOnly,
		}),
		seeds: tagstats.NewSeedSelector(c.SeedCount, c.SeedCriterion, c.SeedMinCount),
	}
	// Recovery and WAL attachment happen last: the engine is fully built,
	// and e.wal is still nil while the hook replays prior documents, so the
	// replay is not re-logged.
	e.attachDurability()
	return e
}

// Config returns the effective engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// DocsProcessed returns the number of consumed documents.
func (e *Engine) DocsProcessed() int64 { return e.docs.Load() }

// ActivePairs returns the number of tracked candidate pairs.
func (e *Engine) ActivePairs() int { return e.pairsTr.ActivePairs() }

// TailStats is the tiered-memory statistics view; see pairs.TailStats.
type TailStats = pairs.TailStats

// TailStats returns the cold-tier and eviction statistics. The eviction
// counters are live even with the tier disabled (Enabled false, tier
// fields zero).
func (e *Engine) TailStats() TailStats { return e.pairsTr.TailStats() }

// Shards returns 1: the engine is unsharded. It stays because the /v1
// stats wire format carries a shards field, and tooling built against the
// sharded engine reads it to check that two engines share their defaults.
func (e *Engine) Shards() int { return 1 }

// Seeds returns a copy of the current seed tag set, best first.
func (e *Engine) Seeds() []string {
	return append([]string(nil), e.seeds.Seeds()...)
}

// Subscribe registers a live notification feed: evaluation ticks are
// delivered to the returned subscription's channel from the engine's
// dispatcher goroutine, outside all engine locks, so consumers may call
// back into the engine freely. Options attach a persona profile (the
// subscriber then receives its personalized re-ranking), a compiled
// predicate (SubTags/SubAllTags/SubMinScore/SubEmergenceOnly — the
// subscription then receives only ticks where its filtered view changed,
// found through the broker's inverted tag index rather than broadcast),
// trim to a per-subscriber top-k, and size the bounded buffer; slow
// consumers lose the oldest buffered notifications first (counted on the
// subscription), never stalling the engine or other subscribers.
// Cancelling ctx closes the subscription; a nil ctx subscribes until
// Close. Safe for concurrent use.
func (e *Engine) Subscribe(ctx context.Context, opts ...SubOption) *Subscription {
	return e.broker.subscribe(ctx, opts...)
}

// Subscribers returns the number of live broker subscriptions.
func (e *Engine) Subscribers() int { return e.broker.subscribers() }

// IndexedTags returns the number of distinct interned tags referenced by
// at least one live subscription predicate — the breadth of the broker's
// inverted dispatch index.
func (e *Engine) IndexedTags() int { return e.broker.indexedTags() }

// MatchedLastTick returns how many subscriptions were handed a
// notification on the most recently dispatched tick.
func (e *Engine) MatchedLastTick() int64 { return e.broker.matchedLastTick() }

// RankingsDropped returns the total number of ranking deliveries discarded
// across all subscriptions because consumers fell behind.
func (e *Engine) RankingsDropped() int64 { return e.broker.droppedTotal.Load() }

// PublishRanking hands a pre-built ranking straight to the broker and
// waits for dispatch to complete. It bypasses ingest and tick evaluation
// entirely — the ranking is NOT recorded as engine state (CurrentRanking
// is unaffected) — and exists for benchmarks and replay tooling that need
// to drive the subscription-dispatch path with synthetic ticks. Must not
// be called from a subscription consumer (the dispatcher cannot drain
// itself).
func (e *Engine) PublishRanking(r Ranking) {
	e.broker.publish(r)
	e.broker.wait()
}

// Close shuts the broker down: it waits for in-flight deliveries to drain,
// stops the dispatcher, and closes every subscription channel. The engine
// itself remains usable for Consume/Tick/CurrentRanking, but no further
// rankings are delivered to subscribers. Call Flush first if the final
// partial tick should still be delivered. Idempotent; must not be called
// from inside a subscription consumer that the dispatcher is feeding
// synchronously.
func (e *Engine) Close() {
	e.broker.close()
	if e.dur != nil {
		// Ingest is synchronous, so the final WAL sync covers every document
		// consumed before Close. Close is idempotent on the persistence side.
		e.dur.Close()
	}
}

// LastEventTime returns the newest event timestamp consumed so far (zero
// before the first document). Live servers use it to drive wall-clock Ticks
// at the stream's own clock. Lock-free.
func (e *Engine) LastEventTime() time.Time {
	n := e.lastSeenNano.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// itemTags resolves the tag set the engine operates on for an item.
func (e *Engine) itemTags(it *stream.Item) []string {
	if !e.cfg.UseEntities {
		return it.Tags
	}
	if e.cfg.Tagger != nil && len(it.Entities) == 0 && it.Text != "" {
		it = it.Clone()
		it.Entities = e.cfg.Tagger.Entities(it.Text)
	}
	return it.AllTags()
}

// Consume implements stream.Sink: it feeds one tuple through seed
// statistics and pair tracking, firing evaluation ticks as event time
// passes tick boundaries. It is ConsumeBatch of one item. Safe for
// concurrent use.
//
//enblogue:acquires engine
func (e *Engine) Consume(it *stream.Item) {
	if it == nil {
		return
	}
	e.ConsumeBatch([]*stream.Item{it})
}

// ConsumeBatch feeds a run of items through the engine in order, paying
// the bookkeeping lock once per batch and the pair-tracker lock once per
// segment instead of once per document, with rankings bit-identical to
// consuming the items one call at a time.
//
// The batch is processed as segments delimited by the events that change
// per-document state: an evaluation tick or a seed reselection. Documents
// accumulate as pending pair observations; before any tick fires (ticks
// snapshot pair counters) and before any seed reselection (reselection
// changes the candidate predicate for documents observed after it), the
// pending run is flushed through pairs.Tracker.ObserveBatch with the
// predicate that was current when those documents arrived — exactly the
// predicate a one-item call would have used, since it only changes at
// those same two events. Within a segment the only per-document coupling
// in the pair tracker is sweep timing, which ObserveBatch checks after
// every document.
//
// Safe for concurrent use with every other engine method; determinism is
// promised for a sequentially fed stream.
//
//enblogue:acquires engine
//enblogue:hotpath
func (e *Engine) ConsumeBatch(items []*stream.Item) {
	if len(items) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	isSeed := e.seeds.Func()
	for _, it := range items {
		if it == nil {
			continue
		}
		t := it.Time
		tags := e.itemTags(it)

		if t.After(e.LastEventTime()) {
			e.lastSeenNano.Store(t.UnixNano())
		}
		// Fire any ticks the stream has moved past. A pathological time jump
		// (archive gap) fast-forwards rather than replaying empty ticks.
		if e.nextTick.IsZero() {
			e.nextTick = t.Add(e.cfg.TickEvery)
		}
		if gap := t.Sub(e.nextTick); gap > 100*e.cfg.TickEvery {
			e.flushPendingLocked(isSeed)
			e.tickLocked(e.nextTick)
			e.nextTick = t.Add(e.cfg.TickEvery)
			isSeed = e.seeds.Func()
		}
		for !e.nextTick.After(t) {
			e.flushPendingLocked(isSeed)
			e.tickLocked(e.nextTick)
			e.nextTick = e.nextTick.Add(e.cfg.TickEvery)
			isSeed = e.seeds.Func()
		}

		e.tags.Observe(t, tags)
		docs := e.docs.Add(1)
		if e.wal != nil {
			// The raw item is logged (pre-itemTags), so replay re-derives
			// entity tags identically instead of trusting a stale derivation.
			e.wal.RecordDoc(docs, it)
		}
		// Bootstrap the seed set once enough documents have arrived, so
		// pair tracking starts before the first tick. The reselection falls
		// between this document's bookkeeping and its pair observation:
		// earlier documents flush under the old predicate, this one is
		// observed under the new.
		if len(e.seeds.Seeds()) == 0 && docs >= int64(e.cfg.SeedWarmupDocs) {
			e.flushPendingLocked(isSeed)
			e.seeds.Reselect(e.tags)
			isSeed = e.seeds.Func()
		}
		e.batchDocs = append(e.batchDocs, pairs.BatchDoc{Time: t, Tags: tags})
	}
	e.flushPendingLocked(isSeed)
}

// flushPendingLocked observes the pending documents' pairs under isSeed
// and empties the pending buffer.
//
//enblogue:requires engine
//enblogue:hotpath
func (e *Engine) flushPendingLocked(isSeed func(string) bool) {
	if len(e.batchDocs) == 0 {
		return
	}
	e.pairsTr.ObserveBatch(e.batchDocs, isSeed)
	if e.dist != nil {
		e.dist.ObserveBatch(e.batchDocs)
	}
	clear(e.batchDocs) // release tag-slice references
	e.batchDocs = e.batchDocs[:0]
}

// Flush implements stream.Flusher: it runs a final evaluation tick at the
// last observed event time — unless an evaluation at (or after) that time
// already ran, in which case re-evaluating would only feed every pair's
// predictor a duplicate observation. Flush then blocks until every ranking
// published so far has been fully delivered (subscription channels fed),
// establishing a happens-before edge: state visible to the dispatcher
// before Flush is safely readable after Flush returns.
//
//enblogue:acquires engine
func (e *Engine) Flush() {
	e.mu.Lock()
	if at := e.LastEventTime(); !at.IsZero() && at.After(e.lastTick) {
		e.tickLocked(at)
	}
	e.mu.Unlock()
	e.broker.wait()
}

// Tick forces an evaluation at time t (used by callers driving their own
// tick schedule, e.g. benchmarks or the live server's wall-clock timer).
// Safe for concurrent use with Consume. A t at or before the newest
// evaluation already run is ignored (the current ranking is returned
// unchanged): a wall-clock ticker that loaded LastEventTime just before an
// event-driven tick fired must not rewind the published ranking or feed
// the predictors a duplicate observation.
//
//enblogue:acquires engine
func (e *Engine) Tick(t time.Time) Ranking {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !t.After(e.lastTick) {
		return e.CurrentRanking()
	}
	return e.tickLocked(t).Clone()
}

// topicCmp is the engine's deterministic ranking order as a three-way
// comparator: descending score, ties broken by the pair rendering (compared
// through Key.Less, which orders exactly like the rendered strings without
// building them).
func topicCmp(a, b *shift.Topic) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if a.Pair.Less(b.Pair) {
		return -1
	}
	if b.Pair.Less(a.Pair) {
		return 1
	}
	return 0
}

// topicWorse reports whether a ranks strictly below b in the engine's
// deterministic ranking order: lower score, ties by pair rendering
// descending.
func topicWorse(a, b *shift.Topic) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return b.Pair.Less(a.Pair)
}

// topkPush folds t into a bounded min-heap of capacity k whose root is the
// worst kept topic under topicWorse. Kept topics live in buf while the heap
// itself is idx, an array of positions into buf: sift operations swap int32
// indexes instead of ~100-byte Topic structs, and comparisons read buf in
// place. Selecting the top-k this way replaces a sort of every scored topic
// per tick (O(p log p)) with O(p log k), and both slices are reused across
// ticks. The ranking order is a strict total
// order (scores tie-broken by distinct pair keys), so the kept set — later
// materialised in topicCmp order — is exactly the prefix a full
// sort-and-trim would keep.
func topkPush(buf []shift.Topic, idx []int32, k int, t *shift.Topic) ([]shift.Topic, []int32) {
	if len(idx) < k {
		buf = append(buf, *t)
		idx = append(idx, int32(len(buf)-1))
		for i := len(idx) - 1; i > 0; {
			p := (i - 1) / 2
			if !topicWorse(&buf[idx[i]], &buf[idx[p]]) {
				break
			}
			idx[i], idx[p] = idx[p], idx[i]
			i = p
		}
		return buf, idx
	}
	if !topicWorse(&buf[idx[0]], t) {
		return buf, idx // t is no better than the worst kept topic
	}
	buf[idx[0]] = *t
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(idx) && topicWorse(&buf[idx[l]], &buf[idx[m]]) {
			m = l
		}
		if r < len(idx) && topicWorse(&buf[idx[r]], &buf[idx[m]]) {
			m = r
		}
		if m == i {
			break
		}
		idx[i], idx[m] = idx[m], idx[i]
		i = m
	}
	return buf, idx
}

// tickScratch is the engine's reusable per-tick working set; see the
// Engine.tick field. Tag counts live in a dense epoch-tagged index keyed by
// interned tag ID: setCount stamps an entry with the current tick's epoch,
// count reads entries stamped this epoch and returns 0 for anything older —
// so "clearing" the index between ticks is one integer increment, and the
// per-pair lookup is two array reads instead of a string-keyed map probe.
type tickScratch struct {
	counts     []float64
	countEpoch []uint32
	epoch      uint32
	snap       []pairs.PairCount
	// heapBuf and heapIdx are the topkPush working set: kept topics and
	// the index heap over them.
	heapBuf []shift.Topic
	heapIdx []int32
	// topStats is the seed-selection buffer handed to tagstats.TopAppend,
	// reused across ticks like every other buffer here.
	topStats []tagstats.TagStat
}

// beginCounts starts a fresh count epoch.
func (ts *tickScratch) beginCounts() { ts.epoch++ }

// setCount records tag id's windowed count for the current epoch, growing
// the index as the interned vocabulary grows.
func (ts *tickScratch) setCount(id uint32, v float64) {
	if int(id) >= len(ts.counts) {
		grown := make([]float64, id+1)
		copy(grown, ts.counts)
		ts.counts = grown
		grownE := make([]uint32, id+1)
		copy(grownE, ts.countEpoch)
		ts.countEpoch = grownE
	}
	ts.counts[id] = v
	ts.countEpoch[id] = ts.epoch
}

// count returns tag id's windowed count for the current epoch, 0 if the
// tag was not recorded this tick.
func (ts *tickScratch) count(id uint32) float64 {
	if int(id) >= len(ts.countEpoch) || ts.countEpoch[id] != ts.epoch {
		return 0
	}
	return ts.counts[id]
}

// tickLocked reselects seeds, evaluates every candidate pair, selects the
// top-k through a bounded heap, publishes the result, and sweeps dead
// detector state. The caller must hold e.mu.
//
//enblogue:requires engine
//enblogue:acquires rank
func (e *Engine) tickLocked(t time.Time) Ranking {
	if t.After(e.lastTick) {
		e.lastTick = t
	}

	n := e.tags.DocCount()
	// The default-mode count index is keyed by interned tag ID and reused
	// across ticks: evaluation then looks pair members up by uint32 instead
	// of hashing two strings per pair. Seed reselection is fused into the
	// same pass over the tag statistics (one map iteration per tick, not
	// two), selecting through a bounded heap with exactly Top's ordering.
	ts := &e.tick
	var seeds []string
	var dists map[string]map[string]float64
	if e.dist == nil {
		ts.beginCounts()
		ts.topStats = e.tags.TopAppend(e.seeds.K, e.seeds.Criterion, e.seeds.MinCount,
			ts.topStats[:0], func(tag string, id uint32, v float64) {
				// IDs resolve through intern.Find (installed as the tracker's
				// resolver at construction), not Intern: ID assignment happens
				// only on the ingest path, in first-seen stream order, so
				// replays assign identically. A tag with no ID was never part
				// of any candidate pair (only ≥2-tag documents intern), so its
				// count can never be read by the evaluation below.
				if id != tagstats.NoID {
					ts.setCount(id, v)
				}
			})
		seeds = e.seeds.ReselectFrom(ts.topStats)
	} else {
		seeds = e.seeds.Reselect(e.tags)
		dists = e.dist.Snapshot()
	}

	// Promote tail-tier pairs whose estimates crossed the admission floor
	// before taking the evaluation snapshot, so a re-admitted pair is scored
	// in this same tick. No-op while the tail sketch is disabled. Runs at
	// tick time, not ingest time: promotion scans the tail summary, which
	// would be wasted work on the per-document path, and tick boundaries are
	// event-time deterministic, so promotion points replay identically.
	e.pairsTr.PromoteTail()
	ts.snap = e.pairsTr.AppendSnapshot(ts.snap[:0])

	// One Topic reused across the whole snapshot: the detector assigns
	// every field when it fills it, and topkPush copies only when the topic
	// is actually kept. The running heap root is fed back to the detector
	// as the admission floor, so a pair that provably cannot reach the
	// current top-k (its undecayed score bound is below the root) updates
	// its predictor state and returns without ever materialising a Topic or
	// computing an exponential — the selected set is exactly what an
	// unfloored evaluation would select.
	det := e.det
	hbuf, hidx := ts.heapBuf[:0], ts.heapIdx[:0]
	var topic shift.Topic
	floor := 0.0
	for _, pc := range ts.snap {
		var filled bool
		if e.dist != nil {
			tag1, tag2 := pc.Key.Tags()
			filled = det.EvaluateCorrelationInto(t, pc.Key, pc.Slot,
				pairs.SimilarityFrom(dists, tag1, tag2), pc.Count, floor, &topic)
		} else {
			ida, idb := pc.Key.IDs()
			filled = det.EvaluateInto(t, pc.Key, pc.Slot, pc.Count,
				ts.count(ida), ts.count(idb), n, floor, &topic)
		}
		if filled && topic.Score > 0 {
			hbuf, hidx = topkPush(hbuf, hidx, e.cfg.TopK, &topic)
			if len(hidx) == e.cfg.TopK {
				floor = hbuf[hidx[0]].Score
			}
		}
	}
	// Every pair just evaluated carries seen == t, so the stale sweep is
	// exactly a keep-set sweep without building the keep set.
	det.SweepStale(t, 1e-9)
	ts.heapBuf, ts.heapIdx = hbuf, hidx

	// Materialise the kept set best-first: sort the index heap (int32
	// swaps, in-place reads) and copy each topic out once, into a fresh
	// slice — the Ranking escapes to the broker and history, while the heap
	// buffers are reused next tick.
	slices.SortFunc(hidx, func(a, b int32) int { return topicCmp(&hbuf[a], &hbuf[b]) })
	var topics []shift.Topic // nil, not empty, when nothing scored
	if len(hidx) > 0 {
		topics = make([]shift.Topic, len(hidx))
		for i, j := range hidx {
			topics[i] = hbuf[j]
		}
	}

	r := Ranking{At: t, Seeds: seeds, Topics: topics}
	e.rankMu.Lock()
	e.last = r
	e.rankMu.Unlock()
	// Hand the ranking to the broker; delivery to subscriptions happens
	// on the dispatcher goroutine, outside e.mu, so consumers may call
	// back into the engine.
	e.broker.publish(r)
	return r
}

// CurrentRanking returns a defensive copy of the most recent ranking. Safe
// for concurrent use with the consuming goroutine; mutating the returned
// slices cannot corrupt the engine's published state.
//
//enblogue:acquires rank
func (e *Engine) CurrentRanking() Ranking {
	e.rankMu.Lock()
	defer e.rankMu.Unlock()
	return e.last.Clone()
}
