package pairs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"enblogue/internal/window"
)

// This file is the pair trackers' durability surface. Exports are canonical:
// pairs are emitted sorted by Key.Compare (the rendered-string order, which
// does not depend on interned IDs or slot layout) with every counter
// advanced to the tracker clock first, so two trackers holding the same
// logical state — regardless of slot layout or lazy-expiry position —
// export identical state.

// PairState is one tracked pair's exported window column.
type PairState struct {
	Key    Key
	Window window.SlotState
}

// TrackerState is the full serializable state of a Tracker.
type TrackerState struct {
	Pairs   []PairState // sorted by Key.Compare
	NowNano int64
	SinceGC int64
}

// ExportState returns the tracker's full state with pairs sorted by
// Key.Compare and every counter advanced to the tracker clock. Safe for
// concurrent use, though callers wanting a consistent engine snapshot must
// quiesce producers externally (the engine lock does).
//
//enblogue:acquires pairs
func (tr *Tracker) ExportState() TrackerState {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := TrackerState{
		NowNano: tr.nowNano,
		SinceGC: tr.sinceGC,
		Pairs:   make([]PairState, 0, len(tr.slots)),
	}
	now := tr.now()
	var abs int64
	if !now.IsZero() {
		abs = tr.arena.BucketIndex(now)
	}
	for slot, k := range tr.keys {
		if k == (Key{}) {
			continue
		}
		if !now.IsZero() {
			// Advance to the tracker clock so exported heads agree across
			// slots and trackers — expiry is lazy, so this changes only the
			// representation, never any observable count.
			tr.arena.ValueAtAbs(int32(slot), abs)
		}
		st.Pairs = append(st.Pairs, PairState{Key: k, Window: tr.arena.ExportSlot(int32(slot))})
	}
	sort.Slice(st.Pairs, func(i, j int) bool { return st.Pairs[i].Key.Less(st.Pairs[j].Key) })
	return st
}

// RestoreState loads st into an empty tracker. Restoring into a tracker
// that has already observed documents is an error.
//
//enblogue:acquires pairs
func (tr *Tracker) RestoreState(st TrackerState) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.slots) != 0 || tr.nowNano != 0 {
		return errors.New("pairs: restore into a non-empty tracker")
	}
	for _, p := range st.Pairs {
		if p.Key == (Key{}) {
			return errors.New("pairs: restore of a zero pair key")
		}
		if _, dup := tr.slots[p.Key]; dup {
			return fmt.Errorf("pairs: duplicate pair %s in restore state", p.Key)
		}
		slot := tr.allocLocked(p.Key)
		if err := tr.arena.RestoreSlot(slot, p.Window); err != nil {
			tr.dropLocked(p.Key, slot)
			return err
		}
	}
	tr.nowNano = st.NowNano
	tr.sinceGC = st.SinceGC
	return nil
}

// DistCoState is one (tag, co-tag) counter's exported window.
type DistCoState struct {
	Co string
	W  window.TimeBucketsState
}

// DistTagState is one tag's exported co-tag distribution.
type DistTagState struct {
	Tag string
	Co  []DistCoState // sorted by Co
}

// DistState is the full serializable state of a DistTracker.
type DistState struct {
	Tags    []DistTagState // sorted by Tag
	NowNano int64
	NowSet  bool
	SinceGC int64
}

// ExportState returns the distribution tracker's full state with tags and
// co-tags sorted and every counter advanced to the tracker clock.
//
//enblogue:acquires pairsDist
func (dt *DistTracker) ExportState() DistState {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	st := DistState{
		NowNano: dt.now.UnixNano(),
		NowSet:  !dt.now.IsZero(),
		SinceGC: int64(dt.sinceGC),
		Tags:    make([]DistTagState, 0, len(dt.byTag)),
	}
	if !st.NowSet {
		st.NowNano = 0
	}
	//enblogue:unordered collects every tag for an explicit sort below; insertion order is immaterial
	for tag, m := range dt.byTag {
		ts := DistTagState{Tag: tag, Co: make([]DistCoState, 0, len(m))}
		//enblogue:unordered collects every co-tag for an explicit sort below; see outer loop
		for co, c := range m {
			if st.NowSet {
				c.Observe(dt.now) // canonicalise the head; expiry is lazy
			}
			ts.Co = append(ts.Co, DistCoState{Co: co, W: c.ExportState()})
		}
		sort.Slice(ts.Co, func(i, j int) bool { return ts.Co[i].Co < ts.Co[j].Co })
		st.Tags = append(st.Tags, ts)
	}
	sort.Slice(st.Tags, func(i, j int) bool { return st.Tags[i].Tag < st.Tags[j].Tag })
	return st
}

// RestoreState loads st into an empty distribution tracker.
//
//enblogue:acquires pairsDist
func (dt *DistTracker) RestoreState(st DistState) error {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if len(dt.byTag) != 0 || dt.counters != 0 {
		return errors.New("pairs: restore into a non-empty distribution tracker")
	}
	for _, ts := range st.Tags {
		if _, dup := dt.byTag[ts.Tag]; dup {
			return fmt.Errorf("pairs: duplicate tag %q in distribution restore state", ts.Tag)
		}
		m := make(map[string]*window.Counter, len(ts.Co))
		for _, cs := range ts.Co {
			if _, dup := m[cs.Co]; dup {
				return fmt.Errorf("pairs: duplicate co-tag %q under %q in distribution restore state", cs.Co, ts.Tag)
			}
			c := window.NewCounter(dt.cfg.Buckets, dt.cfg.Resolution)
			if err := c.RestoreState(cs.W); err != nil {
				return err
			}
			m[cs.Co] = c
			dt.counters++
		}
		dt.byTag[ts.Tag] = m
	}
	if st.NowSet {
		dt.now = time.Unix(0, st.NowNano).UTC()
	}
	dt.sinceGC = int(st.SinceGC)
	return nil
}
