package pairs

import (
	"time"

	"enblogue/internal/intern"
)

// BatchDoc is one document in an observation batch: its event time and tag
// set.
type BatchDoc struct {
	Time time.Time
	Tags []string
}

// ObserveBatch records a run of documents, in order, under one lock
// acquisition. For each document it lifts the tracker clock, increments the
// windowed co-occurrence count of every candidate pair — every unordered
// pair of distinct tags of which at least one satisfies isSeed; a nil
// isSeed tracks all pairs — and then checks the sweep triggers (SweepEvery
// documents since the last sweep, or more than MaxPairs pairs). Because the
// check follows every document, sweep and eviction timing — which is
// observable, since eviction destroys windowed history — does not depend
// on how a stream is split into batches.
//
//enblogue:acquires pairs
//enblogue:acquires tier
//enblogue:hotpath
func (tr *Tracker) ObserveBatch(docs []BatchDoc, isSeed func(string) bool) {
	if len(docs) == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, d := range docs {
		if n := d.Time.UnixNano(); n > tr.nowNano || tr.nowNano == 0 {
			tr.nowNano = n
		}
		if len(d.Tags) >= 2 {
			tr.observeLocked(d, isSeed)
		}
		tr.sinceGC++
		if tr.sweepDueLocked() {
			tr.sweepLocked()
		}
	}
}

// observeLocked increments every candidate pair of one document with at
// least two tags. Documents are deduplicated and interned in stream order,
// so interned-ID assignment replays identically.
//
//enblogue:requires pairs
//enblogue:hotpath
func (tr *Tracker) observeLocked(d BatchDoc, isSeed func(string) bool) {
	tr.ids = tr.ids[:0]
	tr.seed = tr.seed[:0]
	for _, tag := range dedupTags(d.Tags) {
		tr.ids = append(tr.ids, intern.Intern(tag))
		if isSeed != nil {
			tr.seed = append(tr.seed, isSeed(tag))
		}
	}
	abs := tr.arena.BucketIndex(d.Time)
	for a := 0; a < len(tr.ids); a++ {
		for b := a + 1; b < len(tr.ids); b++ {
			if isSeed != nil && !tr.seed[a] && !tr.seed[b] {
				continue
			}
			tr.incLocked(KeyFromIDs(tr.ids[a], tr.ids[b]), abs)
		}
	}
}
