package shift

import (
	"errors"
	"fmt"
	"sort"

	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/window"
)

// This file is the shift detector's durability surface. Exports are
// canonical — pairs sorted by Key.Compare, not slab order. The slot-hint
// cache (bySlot) and sweep deadline cache (keepUntilNano) are rebuildable
// and deliberately not part of the state: a restored detector repopulates
// them on first use with identical semantics.

// PairDetState is one pair's exported detector state.
type PairDetState struct {
	Key      pairs.Key
	Decay    window.DecayState
	SeenNano int64
	Pred     predict.State
}

// DetectorState is the full serializable state of a Detector.
type DetectorState struct {
	Pairs       []PairDetState // sorted by Key.Compare
	CurTickNano int64
	TickCount   int64
}

// exportPairs appends every live slab entry's state to out, in slot order.
func (d *Detector) exportPairs(out []PairDetState) []PairDetState {
	for i := range d.states {
		st := &d.states[i]
		if st.key == (pairs.Key{}) {
			continue
		}
		ps := PairDetState{Key: st.key, Decay: st.decay.ExportState(), SeenNano: st.seenNano}
		if d.useNaive {
			ps.Pred = predict.Export(&st.naive)
		} else {
			ps.Pred = predict.Export(d.preds[i])
		}
		out = append(out, ps)
	}
	return out
}

// restorePair loads one pair's detector state, allocating its slab entry.
// The pair must not already have state.
func (d *Detector) restorePair(k pairs.Key, dec window.DecayState, seenNano int64, pred predict.State) error {
	if k == (pairs.Key{}) {
		return errors.New("shift: restore of a zero pair key")
	}
	if _, exists := d.index[k]; exists {
		return fmt.Errorf("shift: duplicate pair %s in restore state", k)
	}
	st, i := d.alloc(k)
	st.decay.RestoreState(dec)
	st.seenNano = seenNano
	if d.useNaive {
		return predict.Restore(&st.naive, pred)
	}
	return predict.Restore(d.preds[i], pred)
}

// ExportState returns the detector's full state with pairs sorted by
// Key.Compare.
func (d *Detector) ExportState() DetectorState {
	st := DetectorState{CurTickNano: d.curTickNano, TickCount: int64(d.tickCount)}
	st.Pairs = d.exportPairs(nil)
	sort.Slice(st.Pairs, func(i, j int) bool { return st.Pairs[i].Key.Less(st.Pairs[j].Key) })
	return st
}

// RestoreState loads st into an empty detector, including its
// evaluation-round clock.
func (d *Detector) RestoreState(st DetectorState) error {
	if d.ActiveStates() != 0 {
		return errors.New("shift: restore into a non-empty detector")
	}
	for _, p := range st.Pairs {
		if err := d.restorePair(p.Key, p.Decay, p.SeenNano, p.Pred); err != nil {
			return err
		}
	}
	d.curTickNano = st.CurTickNano
	d.tickCount = int(st.TickCount)
	return nil
}
