package enblogue_test

import (
	"reflect"
	"sort"
	"testing"

	"enblogue"
	"enblogue/internal/stream"
)

// This file holds the subscription-predicate determinism acceptance test:
// a predicate-filtered subscription promises to deliver exactly the ticks
// a full subscriber would have kept after filtering client-side — same
// ticks, same topics, same scores, bit-identical.
// The client-side reference below is deliberately naive string-level
// code, independent of the broker's interned-ID index, diff scratch, and
// candidate collection: if the inverted index ever skips a subscriber it
// should have evaluated (or wakes one it shouldn't), the sequences
// diverge.

// subPredicate mirrors the public predicate surface for the reference
// simulation.
type subPredicate struct {
	any           []string
	all           []string
	minScore      float64
	emergenceOnly bool
}

func (p subPredicate) opts() []enblogue.SubOption {
	var opts []enblogue.SubOption
	if len(p.any) > 0 {
		opts = append(opts, enblogue.WithTags(p.any...))
	}
	if len(p.all) > 0 {
		opts = append(opts, enblogue.WithAllTags(p.all...))
	}
	if p.minScore > 0 {
		opts = append(opts, enblogue.WithMinScore(p.minScore))
	}
	if p.emergenceOnly {
		opts = append(opts, enblogue.WithEmergenceOnly())
	}
	return opts
}

func (p subPredicate) matches(t enblogue.Topic) bool {
	if t.Score < p.minScore {
		return false
	}
	for _, tag := range p.all {
		if !t.Pair.Contains(tag) {
			return false
		}
	}
	if len(p.any) > 0 {
		ok := false
		for _, tag := range p.any {
			if t.Pair.Contains(tag) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// clientFilter replays the full ranking sequence through the predicate
// the way a client-side filter with (pair, score) dedup would: keep only
// matching topics, emit a tick only when the filtered view changed, and
// under emergence-only emit only newly entered topics on ticks where
// something entered.
func clientFilter(full []enblogue.Ranking, p subPredicate) []enblogue.Ranking {
	var out []enblogue.Ranking
	type mark struct {
		pair  enblogue.Key
		score float64
	}
	var prev []mark
	for _, r := range full {
		var view []enblogue.Topic
		for _, t := range r.Topics {
			if p.matches(t) {
				view = append(view, t)
			}
		}
		same := len(view) == len(prev)
		if same {
			for i := range view {
				if prev[i].pair != view[i].Pair || prev[i].score != view[i].Score {
					same = false
					break
				}
			}
		}
		if same {
			continue
		}
		entered := map[enblogue.Key]bool{}
		for _, t := range view {
			seen := false
			for _, m := range prev {
				if m.pair == t.Pair {
					seen = true
					break
				}
			}
			if !seen {
				entered[t.Pair] = true
			}
		}
		next := make([]mark, len(view))
		for i, t := range view {
			next[i] = mark{t.Pair, t.Score}
		}
		if p.emergenceOnly && len(entered) == 0 {
			prev = next
			continue
		}
		payload := view
		if p.emergenceOnly {
			payload = nil
			for _, t := range view {
				if entered[t.Pair] {
					payload = append(payload, t)
				}
			}
		}
		out = append(out, enblogue.Ranking{At: r.At, Seeds: r.Seeds, Topics: payload})
		prev = next
	}
	return out
}

// pickPredicates derives workload-appropriate predicates from the
// reference replay itself, deterministically: the most frequent tag, the
// most frequent pair, and the median score, so every predicate is
// guaranteed to both match and not-match real ticks.
func pickPredicates(t *testing.T, full []enblogue.Ranking) map[string]subPredicate {
	t.Helper()
	tagFreq := map[string]int{}
	pairFreq := map[enblogue.Key]int{}
	var scores []float64
	for _, r := range full {
		for _, tp := range r.Topics {
			tagFreq[tp.Pair.Tag1()]++
			tagFreq[tp.Pair.Tag2()]++
			pairFreq[tp.Pair]++
			scores = append(scores, tp.Score)
		}
	}
	if len(scores) == 0 {
		t.Fatal("reference replay produced no topics; workload too small")
	}
	topTag, topN := "", -1
	for tag, n := range tagFreq {
		if n > topN || (n == topN && tag < topTag) {
			topTag, topN = tag, n
		}
	}
	var topPair enblogue.Key
	topN = -1
	for k, n := range pairFreq {
		if n > topN || (n == topN && k.Less(topPair)) {
			topPair, topN = k, n
		}
	}
	sort.Float64s(scores)
	median := scores[len(scores)/2]
	return map[string]subPredicate{
		"any-top-tag":   {any: []string{topTag}},
		"all-top-pair":  {all: []string{topPair.Tag1(), topPair.Tag2()}},
		"min-median":    {minScore: median},
		"emergence-tag": {any: []string{topTag}, emergenceOnly: true},
	}
}

// filteredReplay feeds the workload into a fresh engine carrying one
// predicated subscription per predicate (subscribed before the first
// document, like the client-side reference starting from an empty view)
// and returns each predicate's delivered sequence.
func filteredReplay(items []*stream.Item, preds map[string]subPredicate) map[string][]enblogue.Ranking {
	e := enblogue.New()
	type feed struct {
		rec  []enblogue.Ranking
		done chan struct{}
	}
	feeds := map[string]*feed{}
	for name, p := range preds {
		f := &feed{done: make(chan struct{})}
		feeds[name] = f
		sub := e.Subscribe(nil, append(p.opts(), enblogue.SubBuffer(1<<16))...)
		go func() {
			defer close(f.done)
			for n := range sub.Notifications() {
				f.rec = append(f.rec, n.Ranking())
			}
		}()
	}
	for _, it := range items {
		e.Consume(it)
	}
	e.Flush()
	e.Close()
	out := map[string][]enblogue.Ranking{}
	for name, f := range feeds {
		<-f.done
		out[name] = f.rec
	}
	return out
}

// TestFilteredSubscriberMatchesClientSideFilter is the acceptance test
// for delta-driven predicate dispatch: on both {tweets, archive} workloads,
// every predicate's delivered sequence equals the client-side filter of
// the full broadcast replay, tick for tick, bit-identically. The
// "shards-1" level names the engine's one partition and keeps the subtest
// names of the sharded era.
func TestFilteredSubscriberMatchesClientSideFilter(t *testing.T) {
	for name, items := range equivWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			full := consumeSerial(items)
			if len(full) == 0 {
				t.Fatalf("serial replay of %q published no rankings", name)
			}
			preds := pickPredicates(t, full)
			want := map[string][]enblogue.Ranking{}
			for pname, p := range preds {
				want[pname] = clientFilter(full, p)
				if len(want[pname]) == 0 {
					t.Fatalf("predicate %q never fires in %q; pickPredicates is broken", pname, name)
				}
				if len(want[pname]) >= len(full) && pname != "min-median" {
					t.Logf("predicate %q fires on every tick of %q; weak but still checked", pname, name)
				}
			}
			t.Run("shards-1", func(t *testing.T) {
				got := filteredReplay(items, preds)
				for pname := range preds {
					if len(got[pname]) != len(want[pname]) {
						t.Fatalf("predicate %q delivered %d ticks, client-side filter kept %d",
							pname, len(got[pname]), len(want[pname]))
					}
					for i := range want[pname] {
						if !reflect.DeepEqual(want[pname][i], got[pname][i]) {
							t.Fatalf("predicate %q tick %d diverges:\n got  %+v\n want %+v",
								pname, i, got[pname][i], want[pname][i])
						}
					}
				}
			})
		})
	}
}
