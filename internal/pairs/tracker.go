package pairs

import (
	"sort"
	"sync"
	"time"

	"enblogue/internal/tier"
	"enblogue/internal/window"
)

// Config parameterises a Tracker.
type Config struct {
	// Buckets and Resolution define the co-occurrence sliding window.
	Buckets    int
	Resolution time.Duration
	// MaxPairs caps tracked pairs; when exceeded at sweep time the pairs
	// with the smallest windowed co-occurrence are evicted first, down to
	// 10% below the cap so a saturated tracker does not re-sweep on every
	// document. Zero means 100000.
	MaxPairs int
	// SweepEvery controls eviction frequency in observed documents.
	// Zero means 2048.
	SweepEvery int
	// Tail, when non-nil, enables the cold tier (internal/tier) on the
	// Tracker: pairs evicted over MaxPairs are demoted into a windowed
	// Count-Min sketch + heavy-hitter summary instead of
	// being forgotten, and are promoted back — counter seeded from the
	// upper-bound sketch estimate — when their estimate crosses the
	// admission floor (PromoteTail). Tail.Span is ignored; the tracker sets
	// it to its own window span so tail decay matches counter decay. Nil
	// disables the tier: eviction forgets, exactly as before.
	Tail *tier.Config
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Buckets == 0 {
		out.Buckets = 48
	}
	if out.Resolution == 0 {
		out.Resolution = time.Hour
	}
	if out.MaxPairs == 0 {
		out.MaxPairs = 100000
	}
	if out.SweepEvery == 0 {
		out.SweepEvery = 2048
	}
	return out
}

// smallTagSet bounds the document sizes handled by dedupTags' map-free
// quadratic scan. Nearly every real document has a handful of tags, so the
// common case allocates nothing at all.
const smallTagSet = 16

// dedupTags returns tags with empties and duplicates removed, preserving
// first-seen order; pair generation assumes a set. When the input is
// already clean — the overwhelming case — the input slice itself is
// returned, so callers must treat the result as transient and must not
// mutate it. Shared by the pair and distribution trackers.
func dedupTags(tags []string) []string {
	if len(tags) <= smallTagSet {
		clean := true
	check:
		for i, tag := range tags {
			if tag == "" {
				clean = false
				break
			}
			for j := 0; j < i; j++ {
				if tags[j] == tag {
					clean = false
					break check
				}
			}
		}
		if clean {
			return tags
		}
		uniq := make([]string, 0, len(tags))
	fill:
		for _, tag := range tags {
			if tag == "" {
				continue
			}
			for _, u := range uniq {
				if u == tag {
					continue fill
				}
			}
			uniq = append(uniq, tag)
		}
		return uniq
	}
	uniq := make([]string, 0, len(tags))
	seen := make(map[string]bool, len(tags))
	for _, tag := range tags {
		if tag == "" || seen[tag] {
			continue
		}
		seen[tag] = true
		uniq = append(uniq, tag)
	}
	return uniq
}

// counted pairs an evictable entry with its windowed count, for
// deterministic smallest-first eviction.
type counted[K any] struct {
	key K
	v   float64
}

// evictTarget is the post-eviction size for an over-budget tracker: 10%
// below MaxPairs (never below 1). The hysteresis keeps a saturated tracker
// from re-triggering a full collect-and-sort sweep on every subsequent
// document that adds one new entry.
func evictTarget(maxPairs int) int {
	t := maxPairs - maxPairs/10
	if t < 1 {
		t = 1
	}
	return t
}

// evictionVictims returns the entries to evict so that at most keep
// remain: the smallest counts, ties broken by less on the keys, in
// ascending order — so the last victim carries the admission floor. It
// sorts all in place. Both trackers' over-budget eviction routes through
// here, so both evict in one deterministic order.
func evictionVictims[K any](all []counted[K], keep int, less func(a, b K) bool) []counted[K] {
	if len(all) <= keep {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v < all[j].v
		}
		return less(all[i].key, all[j].key)
	})
	return all[:len(all)-keep]
}

// keyLess is the eviction tie-break for pair keys: the rendered-string
// order, computed without rendering (Key.Less).
func keyLess(a, b Key) bool { return a.Less(b) }

// PairCount is one tracked pair and its windowed co-occurrence count, as
// returned by Tracker.AppendSnapshot. Slot is the pair's arena slot —
// stable for the pair's whole tracked lifetime — which the engine forwards
// to the shift detector as a state-cache hint.
type PairCount struct {
	Key   Key
	Count float64
	Slot  int32
}

// Tracker maintains windowed co-occurrence counts for candidate tag pairs.
// Candidates are generated per document: every unordered pair of distinct
// document tags of which at least one satisfies the seed predicate ("pairs
// of tags that contain at least one seed tag"). Counters live in one
// slab-allocated CounterArena rather than one heap object per pair. Safe
// for concurrent use: one mutex guards all state, and it is held across a
// whole ObserveBatch, so a batch's sweeps fire after exactly the documents
// a document-at-a-time stream would sweep after.
type Tracker struct {
	cfg Config

	// mu guards every field below. The cold tier's own lock (class tier,
	// order 45) is only ever taken while mu is held — demotion from the
	// sweep, promotion from PromoteTail — an ascending acquisition.
	//
	//enblogue:lock pairs 40
	mu    sync.Mutex
	slots map[Key]int32
	arena *window.CounterArena
	// keys is the reverse index: keys[slot] names the pair occupying that
	// arena slot, zero Key for free slots (a valid pair key is never zero —
	// interned IDs are biased by +1 before packing). Snapshots and sweeps
	// walk it in slot order, turning the per-tick scan into sequential slab
	// reads instead of a map iteration; slot order is insertion-stable
	// across ticks, which also keeps downstream detector-state access
	// sequential.
	keys []Key
	// approx maps pairs whose counters were seeded from a tail-tier sketch
	// estimate at promotion (upper bounds, not exact counts) to the seeded
	// amount. The sweep subtracts the seed when such a pair is re-evicted:
	// the seed's mass never left the Count-Min sketch, so re-demoting it
	// would compound the estimate on every promote→evict cycle. Nil until
	// the first promotion; entries are cleared when the pair is dropped.
	approx  map[Key]float64
	nowNano int64 // max observed event time, unix nanos; 0 before any document
	sinceGC int64 // documents observed since the last sweep
	// evicted counts lifetime over-budget evictions; demoted counts those
	// absorbed by the tail tier (equal to evicted while the tier is
	// enabled, zero when disabled).
	evicted, demoted int64

	// tail is the cold tier (nil when disabled): the sweep demotes every
	// over-budget eviction victim into it, and PromoteTail re-admits tail
	// pairs whose estimates cross the admission floor.
	tail *tier.Tail
	// floor is the admission floor: the windowed count of the largest pair
	// the last over-budget sweep evicted. A tail pair must beat it to be
	// promoted — i.e. its estimate must show it would have survived that
	// eviction.
	floor      float64
	promotions int64
	// onEvict, when set via SetOnEvict, observes every over-budget
	// eviction with the victim's windowed count — the test seam for
	// cross-validating tail estimates against exact ground truth. Called
	// with mu held; it must not call back into the tracker.
	onEvict func(Key, float64)

	// Reused working sets, so steady-state observation and sweeps allocate
	// nothing: one document's interned IDs and seed flags, and the
	// over-budget sweep's ranking buffer.
	ids      []uint32
	seed     []bool
	sweepAll []counted[Key]
}

// NewTracker returns a pair tracker with the given configuration.
func NewTracker(cfg Config) *Tracker {
	c := cfg.withDefaults()
	tr := &Tracker{
		cfg:   c,
		slots: make(map[Key]int32),
		arena: window.NewCounterArena(c.Buckets, c.Resolution),
	}
	if c.Tail != nil {
		tcfg := *c.Tail
		tcfg.Span = int64(c.Buckets) * int64(c.Resolution)
		tr.tail = tier.New(tcfg)
	}
	return tr
}

// SetOnEvict installs the eviction observer; see the field doc. Must be
// set before the first observation.
func (tr *Tracker) SetOnEvict(fn func(Key, float64)) { tr.onEvict = fn }

// TailEnabled reports whether the cold tier is active.
func (tr *Tracker) TailEnabled() bool { return tr.tail != nil }

// now returns the tracker clock: the max event time observed so far.
func (tr *Tracker) now() time.Time {
	if tr.nowNano == 0 {
		return time.Time{}
	}
	return time.Unix(0, tr.nowNano)
}

// incLocked upserts pair k's counter slot and records an event in the
// absolute window bucket abs.
//
//enblogue:requires pairs
//enblogue:hotpath
func (tr *Tracker) incLocked(k Key, abs int64) {
	slot, ok := tr.slots[k]
	if !ok {
		slot = tr.allocLocked(k)
	}
	tr.arena.IncAbs(slot, abs)
}

// allocLocked gives pair k a fresh arena slot and indexes it both ways.
//
//enblogue:requires pairs
func (tr *Tracker) allocLocked(k Key) int32 {
	slot := tr.arena.Alloc()
	tr.slots[k] = slot
	for int(slot) >= len(tr.keys) {
		tr.keys = append(tr.keys, Key{})
	}
	tr.keys[slot] = k
	return slot
}

// dropLocked removes pair k's slot.
//
//enblogue:requires pairs
func (tr *Tracker) dropLocked(k Key, slot int32) {
	delete(tr.slots, k)
	delete(tr.approx, k)
	tr.keys[slot] = Key{}
	tr.arena.Release(slot)
}

// sweepDueLocked reports whether a sweep trigger is pending: SweepEvery
// documents observed since the last sweep, or the pair budget exceeded.
//
//enblogue:requires pairs
func (tr *Tracker) sweepDueLocked() bool {
	return tr.sinceGC >= int64(tr.cfg.SweepEvery) || len(tr.slots) > tr.cfg.MaxPairs
}

// Sweep advances every counter to the tracker clock, drops pairs whose
// windows have emptied, and — if the tracker is still over MaxPairs —
// evicts the pairs with the smallest windowed counts, ties broken by key.
//
//enblogue:acquires pairs
//enblogue:acquires tier
func (tr *Tracker) Sweep() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.sweepLocked()
}

// sweepLocked is Sweep's body.
//
//enblogue:requires pairs
//enblogue:acquires tier
func (tr *Tracker) sweepLocked() {
	tr.sinceGC = 0
	now := tr.now()
	if now.IsZero() {
		return
	}
	for slot, k := range tr.keys {
		if k != (Key{}) && tr.arena.ValueAt(int32(slot), now) == 0 {
			tr.dropLocked(k, int32(slot))
		}
	}
	if len(tr.slots) <= tr.cfg.MaxPairs {
		return
	}
	// Still over budget: evict the smallest co-occurrence counts. Victims
	// arrive smallest-first, so the last one defines the admission floor.
	// Each victim is demoted into the tail; one whose counter was
	// sketch-seeded demotes only its excess over the seed — the seed's
	// mass is still resident in the sketch, and re-adding it would double
	// the estimate on every promote→evict cycle until inflated tail pairs
	// crowd out genuinely heavy ones. The floor of one event keeps the pair
	// in the heavy-hitter summary (and so promotable) even when nothing new
	// was observed; the overshoot stays on the safe, upper-bound side.
	all := tr.sweepAll[:0]
	//enblogue:unordered collects every pair; evictionVictims ranks by (count, key), a strict total order independent of input order
	for k, slot := range tr.slots {
		all = append(all, counted[Key]{k, tr.arena.Value(slot)})
	}
	for _, v := range evictionVictims(all, evictTarget(tr.cfg.MaxPairs), keyLess) {
		seed := tr.approx[v.key] // zero for never-promoted pairs
		tr.dropLocked(v.key, tr.slots[v.key])
		tr.evicted++
		tr.floor = v.v
		if tr.tail != nil {
			amt := v.v
			if seed > 0 {
				if amt -= seed; amt < 1 {
					amt = 1
				}
			}
			tr.tail.Demote(tr.nowNano, v.key.packed, uint64(amt))
			tr.demoted++
		}
		if tr.onEvict != nil {
			tr.onEvict(v.key, v.v)
		}
	}
	tr.sweepAll = all
}

// PromoteTail re-admits every tail pair whose windowed estimate strictly
// exceeds the admission floor, seeding its exact counter with the estimate
// (an upper bound — see internal/tier) at the bucket containing the
// tracker clock and flagging it approximate. Promotions are capped at the
// tracker's current headroom under MaxPairs, best estimates first (ties
// broken by rendered key order, like eviction), so a promotion burst cannot
// blow the memory budget and then thrash the next sweep. Promoted keys
// leave the tail summaries; their sketch mass decays on the generation
// schedule. Returns the number of pairs promoted. The engine calls this at
// tick time, before evaluation snapshots, so promoted pairs are scored in
// the same tick.
//
//enblogue:acquires pairs
//enblogue:acquires tier
func (tr *Tracker) PromoteTail() int {
	if tr.tail == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	headroom := tr.cfg.MaxPairs - len(tr.slots)
	if headroom <= 0 || tr.nowNano == 0 {
		// Full, or no document observed yet (the tail is necessarily empty).
		return 0
	}
	cands := tr.tail.AppendCandidates(tr.nowNano, uint64(tr.floor), nil)
	if len(cands) == 0 {
		return 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Est != cands[j].Est {
			return cands[i].Est > cands[j].Est
		}
		return Key{packed: cands[i].Key}.Less(Key{packed: cands[j].Key})
	})
	if len(cands) > headroom {
		cands = cands[:headroom]
	}
	abs := tr.nowNano / int64(tr.cfg.Resolution)
	for _, c := range cands {
		k := Key{packed: c.Key}
		slot, ok := tr.slots[k]
		if !ok {
			slot = tr.allocLocked(k)
		}
		// If the pair re-emerged on its own since demotion, the counter
		// holds only post-eviction events; the estimate covers the
		// pre-eviction mass, so adding keeps the seeded total an upper
		// bound on the true windowed count.
		tr.arena.AddAbs(slot, abs, float64(c.Est))
		if tr.approx == nil {
			tr.approx = make(map[Key]float64)
		}
		// Accumulate, not assign: a pair promoted twice without an eviction
		// in between (impossible today — Remove gates re-candidacy on a
		// fresh demotion — but cheap to keep correct) carries both seeds.
		tr.approx[k] += float64(c.Est)
		tr.tail.Remove(c.Key)
	}
	tr.promotions += int64(len(cands))
	return len(cands)
}

// ApproxSeeded reports whether pair k is currently tracked with a counter
// seeded from a tail-tier estimate (an upper bound, not an exact count).
//
//enblogue:acquires pairs
func (tr *Tracker) ApproxSeeded(k Key) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, ok := tr.approx[k]
	return ok
}

// TailStats is a point-in-time view of the cold tier and the eviction
// counters feeding it. The eviction counters are always populated
// (eviction counting predates the tier and works with it disabled); the
// tier fields are zero when Enabled is false.
type TailStats struct {
	Enabled           bool
	TailPairs         int     // distinct pairs in the live tail summaries
	Epsilon           float64 // configured Count-Min error fraction
	ErrorBound        float64 // epsilon × live windowed tail mass
	Promotions        int64   // lifetime tail→exact promotions
	ApproxSeededPairs int     // tracked pairs whose counters are sketch-seeded
	// EvictedByShard and DemotedByShard are the lifetime over-budget
	// evictions and, of those, the ones the tail absorbed. The tracker is
	// unsharded, so each holds exactly one element; they keep their
	// per-shard shape because the /v1 stats wire format
	// (evictedByShard/demotedByShard) and its consumers read them as
	// slices.
	EvictedByShard []int64
	DemotedByShard []int64
}

// TailStats returns the current tier statistics. Safe for concurrent use.
//
//enblogue:acquires pairs
//enblogue:acquires tier
func (tr *Tracker) TailStats() TailStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ts := TailStats{
		ApproxSeededPairs: len(tr.approx),
		EvictedByShard:    []int64{tr.evicted},
		DemotedByShard:    []int64{tr.demoted},
	}
	if tr.tail == nil {
		return ts
	}
	s := tr.tail.Stats()
	ts.Enabled = true
	ts.Promotions = tr.promotions
	ts.TailPairs = s.Pairs
	ts.Epsilon = s.Epsilon
	ts.ErrorBound = s.Epsilon * float64(s.Mass)
	return ts
}

// Cooccurrence returns the number of windowed documents carrying both tags
// of the pair.
//
//enblogue:acquires pairs
func (tr *Tracker) Cooccurrence(k Key) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	slot, ok := tr.slots[k]
	if !ok {
		return 0
	}
	return tr.arena.ValueAt(slot, tr.now())
}

// Series returns the per-bucket co-occurrence counts of the pair, oldest
// first, or nil if the pair is not tracked.
//
//enblogue:acquires pairs
func (tr *Tracker) Series(k Key) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	slot, ok := tr.slots[k]
	if !ok {
		return nil
	}
	tr.arena.Observe(slot, tr.now())
	return tr.arena.Series(slot)
}

// ActivePairs returns the number of pairs currently tracked.
//
//enblogue:acquires pairs
func (tr *Tracker) ActivePairs() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.slots)
}

// Keys returns all tracked pair keys in unspecified order. The slice is
// freshly allocated.
//
//enblogue:acquires pairs
func (tr *Tracker) Keys() []Key {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Key, 0, len(tr.slots))
	//enblogue:unordered documented unspecified order; ranking consumers sort or select with a strict total order
	for k := range tr.slots {
		out = append(out, k)
	}
	return out
}

// AppendSnapshot appends every tracked pair — counters advanced to the
// tracker clock — to buf and returns it. The engine passes a buffer reused
// across ticks (buf[:0]) so the steady-state tick allocates nothing for
// snapshots.
//
// Pairs are emitted in arena slot order (via the reverse key index), not
// map order: the walk reads the counter slab sequentially, and the order
// is insertion-stable across ticks so downstream per-pair state allocated
// in first-snapshot order is also visited sequentially. Snapshot order
// cannot affect rankings — per-pair evaluation is independent, and every
// downstream selection (top-k heaps, final sorts) uses a strict total
// order, so any input order yields the same ranking.
//
//enblogue:acquires pairs
func (tr *Tracker) AppendSnapshot(buf []PairCount) []PairCount {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if cap(buf)-len(buf) < len(tr.slots) {
		grown := make([]PairCount, len(buf), len(buf)+len(tr.slots))
		copy(grown, buf)
		buf = grown
	}
	now := tr.now()
	if now.IsZero() {
		for slot, k := range tr.keys {
			if k != (Key{}) {
				buf = append(buf, PairCount{Key: k, Count: tr.arena.Value(int32(slot)), Slot: int32(slot)})
			}
		}
		return buf
	}
	abs := tr.arena.BucketIndex(now) // one conversion for the whole walk
	for slot, k := range tr.keys {
		if k != (Key{}) {
			buf = append(buf, PairCount{Key: k, Count: tr.arena.PeekAbs(int32(slot), abs), Slot: int32(slot)})
		}
	}
	return buf
}

// DistTracker maintains, per tag, the windowed distribution of tags that
// co-occur with it — the "documents represented by their entire tag sets"
// variant. Correlation between two tags is then a relative-entropy
// similarity of their co-tag usage distributions.
//
// Memory is bounded: the total number of (tag, co-tag) counters is capped at
// MaxPairs; when a sweep finds the tracker over budget, the counters with
// the smallest windowed counts are evicted first — the same policy the
// Tracker applies to pairs. Safe for concurrent use: all methods are
// serialised by an internal mutex.
type DistTracker struct {
	//enblogue:lock pairsDist 55
	mu       sync.Mutex
	cfg      Config
	byTag    map[string]map[string]*window.Counter
	counters int // total (tag, co-tag) counters across byTag
	now      time.Time
	sinceGC  int
}

// NewDistTracker returns a distribution tracker with the given window.
func NewDistTracker(cfg Config) *DistTracker {
	c := cfg.withDefaults()
	return &DistTracker{cfg: c, byTag: make(map[string]map[string]*window.Counter)}
}

// ObserveBatch records the co-tag distribution contributions of a run of
// documents, in order, under a single lock acquisition. Sweep timing is
// checked after every document, so any split of a stream into batches
// leaves the same state.
//
//enblogue:acquires pairsDist
func (dt *DistTracker) ObserveBatch(docs []BatchDoc) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	for _, d := range docs {
		dt.observeLocked(d.Time, d.Tags)
	}
}

// observeLocked records one document; callers must hold dt.mu.
//
//enblogue:requires pairsDist
func (dt *DistTracker) observeLocked(t time.Time, tags []string) {
	if t.After(dt.now) {
		dt.now = t
	}
	uniq := dedupTags(tags)
	for _, a := range uniq {
		for _, b := range uniq {
			if a == b {
				continue
			}
			m, ok := dt.byTag[a]
			if !ok {
				m = make(map[string]*window.Counter)
				dt.byTag[a] = m
			}
			c, ok := m[b]
			if !ok {
				c = window.NewCounter(dt.cfg.Buckets, dt.cfg.Resolution)
				m[b] = c
				dt.counters++
			}
			c.Inc(t)
		}
	}
	dt.sinceGC++
	if dt.sinceGC >= dt.cfg.SweepEvery || dt.counters > dt.cfg.MaxPairs {
		dt.sweep()
	}
}

// distKey addresses one (tag, co-tag) counter for eviction.
type distKey struct{ tag, co string }

// distKeyLess orders (tag, co) pairs lexicographically — the eviction
// tie-break for distribution counters.
func distKeyLess(a, b distKey) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.co < b.co
}

// sweep drops emptied counters and, if still over the MaxPairs budget,
// evicts the smallest-count (tag, co-tag) entries first, ties broken by
// (tag, co) order for determinism. Callers must hold dt.mu.
func (dt *DistTracker) sweep() {
	dt.sinceGC = 0
	//enblogue:unordered per-key advance-and-delete of emptied counters; each counter is touched independently, deletions commute
	for tag, m := range dt.byTag {
		//enblogue:unordered per-key advance-and-delete; see outer loop
		for co, c := range m {
			c.Observe(dt.now)
			if c.Value() == 0 {
				delete(m, co)
				dt.counters--
			}
		}
		if len(m) == 0 {
			delete(dt.byTag, tag)
		}
	}
	if dt.counters <= dt.cfg.MaxPairs {
		return
	}
	all := make([]counted[distKey], 0, dt.counters)
	//enblogue:unordered collects every counter; evictionVictims ranks by (count, key), a strict total order independent of input order
	for tag, m := range dt.byTag {
		//enblogue:unordered collect for deterministic global ranking; see outer loop
		for co, c := range m {
			all = append(all, counted[distKey]{distKey{tag, co}, c.Value()})
		}
	}
	for _, v := range evictionVictims(all, evictTarget(dt.cfg.MaxPairs), distKeyLess) {
		delete(dt.byTag[v.key.tag], v.key.co)
		if len(dt.byTag[v.key.tag]) == 0 {
			delete(dt.byTag, v.key.tag)
		}
		dt.counters--
	}
}

// Counters returns the total number of (tag, co-tag) counters tracked.
//
//enblogue:acquires pairsDist
func (dt *DistTracker) Counters() int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.counters
}

// Distribution returns tag's windowed co-tag counts as a map. The map is
// freshly allocated.
//
//enblogue:acquires pairsDist
func (dt *DistTracker) Distribution(tag string) map[string]float64 {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.distributionLocked(tag)
}

// distributionLocked is Distribution's body; callers must hold dt.mu.
//
//enblogue:requires pairsDist
func (dt *DistTracker) distributionLocked(tag string) map[string]float64 {
	m, ok := dt.byTag[tag]
	if !ok {
		return nil
	}
	out := make(map[string]float64, len(m))
	//enblogue:unordered map-to-map copy; inserting into the result map is commutative, and consumers iterate it over sorted support
	for co, c := range m {
		c.Observe(dt.now)
		if v := c.Value(); v > 0 {
			out[co] = v
		}
	}
	return out
}

// Similarity returns 1 − JSDistance between the co-tag distributions of the
// two tags: 1 for identical usage, 0 for disjoint. This is the bounded
// relative-entropy correlation the paper sketches for distribution-valued
// documents. The pair members themselves are excluded from both
// distributions: the comparison asks whether a and b keep the same
// *company*, and each is trivially its partner's company. Both snapshots
// are taken under one lock acquisition, so a concurrent ObserveBatch cannot
// land between them and skew the comparison.
//
//enblogue:acquires pairsDist
func (dt *DistTracker) Similarity(a, b string) float64 {
	dt.mu.Lock()
	da := dt.distributionLocked(a)
	db := dt.distributionLocked(b)
	dt.mu.Unlock()
	return similarityExcluding(da, db, b, a)
}

// similarityExcluding is the shared Similarity/SimilarityFrom core: the
// bounded JS similarity of da (ignoring key exa) and db (ignoring key exb),
// with neither input map copied or mutated. Two effectively empty
// distributions mean no usage evidence at all — e.g. both tags' co-tag
// counters were evicted under memory pressure — and score 0, not the 1.0
// that "identical (empty) usage" would naively yield: a spurious perfect
// correlation would register as a large prediction error and fabricate an
// emergent topic.
func similarityExcluding(da, db map[string]float64, exa, exb string) float64 {
	if lenExcluding(da, exa) == 0 && lenExcluding(db, exb) == 0 {
		return 0
	}
	return 1 - jsDistance(da, db, exa, exb, true)
}

// lenExcluding returns len(m) not counting key ex.
func lenExcluding(m map[string]float64, ex string) int {
	n := len(m)
	if _, ok := m[ex]; ok {
		n--
	}
	return n
}

// Snapshot returns every tag's windowed co-tag distribution, advanced to
// the tracker clock, under a single lock acquisition. Parallel evaluation
// workers take one snapshot per tick and compute similarities lock-free
// via SimilarityFrom instead of serialising on the tracker mutex per pair.
//
//enblogue:acquires pairsDist
func (dt *DistTracker) Snapshot() map[string]map[string]float64 {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	out := make(map[string]map[string]float64, len(dt.byTag))
	//enblogue:unordered map-to-map copy keyed by tag; per-tag distributions are independent, insertion order is immaterial
	for tag := range dt.byTag {
		out[tag] = dt.distributionLocked(tag)
	}
	return out
}

// SimilarityFrom computes Similarity's result from a Snapshot, with the
// same partner-exclusion semantics, without locking, copying, or mutating
// the snapshot (snapshots are shared across evaluation workers). Values are
// identical to calling Similarity on the tracker at snapshot time.
func SimilarityFrom(dists map[string]map[string]float64, a, b string) float64 {
	return similarityExcluding(dists[a], dists[b], b, a)
}
