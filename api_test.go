// Tests of the public enblogue package: the functional-options engine, the
// subscription broker seen through the public surface, and the acceptance
// invariant that the broker's broadcast ranking is bit-identical to
// CurrentRanking.
package enblogue_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"enblogue"
	"enblogue/internal/persona"
)

// apiStream builds a workload through the public Item type only:
// background chatter plus an injected shift.
func apiStream() enblogue.Items {
	start := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	var items enblogue.Items
	id := 0
	add := func(h, m int, tags ...string) {
		id++
		items = append(items, &enblogue.Item{
			Time:  start.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute),
			DocID: fmt.Sprintf("doc-%05d", id),
			Tags:  tags,
		})
	}
	for h := 0; h < 10; h++ {
		for m := 0; m < 60; m += 2 {
			add(h, m, "news", "politics")
			add(h, m, "news", fmt.Sprintf("region%d", (h+m)%7))
		}
	}
	for h := 5; h < 8; h++ {
		for m := 0; m < 60; m += 5 {
			add(h, m, "politics", fmt.Sprintf("scandal%d", m%3))
		}
	}
	// Items must arrive in stream order; interleave by re-sorting.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].Time.Before(items[j-1].Time); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	return items
}

func apiOptions() []enblogue.Option {
	return []enblogue.Option{
		enblogue.WithWindow(12, time.Hour),
		enblogue.WithSeedCount(10),
		enblogue.WithSeedMinCount(2),
		enblogue.WithSeedWarmup(20),
		enblogue.WithMinCooccurrence(2),
		enblogue.WithTopK(10),
	}
}

// Acceptance: the broker's broadcast ranking must be bit-identical to
// CurrentRanking, and a second run of the same stream must reproduce the
// broadcast sequence tick for tick. The engine is unsharded, so one shard
// is every shard count there is; the name is kept so the test ID stays
// stable.
func TestBroadcastBitIdenticalToCurrentRankingAllShardCounts(t *testing.T) {
	items := apiStream()
	var reference []enblogue.Ranking
	for run := 0; run < 2; run++ {
		engine := enblogue.New(apiOptions()...)
		if engine.Shards() != 1 {
			t.Fatalf("unsharded engine reports %d shards", engine.Shards())
		}
		sub := engine.Subscribe(context.Background(), enblogue.SubBuffer(4096))
		if err := engine.Run(context.Background(), items); err != nil {
			t.Fatal(err)
		}
		engine.Close()

		var got []enblogue.Ranking
		for rn := range sub.Notifications() {
			got = append(got, rn.Ranking())
		}
		if len(got) == 0 {
			t.Fatalf("run %d: no rankings delivered", run)
		}
		if sub.Dropped() != 0 {
			t.Fatalf("run %d: dropped %d frames with a huge buffer", run, sub.Dropped())
		}
		last := got[len(got)-1]
		if cur := engine.CurrentRanking(); !reflect.DeepEqual(last, cur) {
			t.Fatalf("run %d: broadcast ranking != CurrentRanking\nbroadcast: %+v\ncurrent:   %+v",
				run, last, cur)
		}
		if reference == nil {
			reference = got
			nonEmpty := false
			for _, r := range reference {
				if len(r.Topics) > 0 {
					nonEmpty = true
				}
			}
			if !nonEmpty {
				t.Fatal("workload produced only empty rankings")
			}
			continue
		}
		mustEqualRankings(t, "second run", got, reference)
	}
}

// A persona subscription through the public API must match the internal
// persona.Registry rerank of the same broadcast topics.
func TestPublicPersonaSubscriptionMatchesRegistry(t *testing.T) {
	profile := &enblogue.Profile{Name: "watcher", Keywords: []string{"scandal"}, Boost: 4}
	engine := enblogue.New(apiOptions()...)
	sub := engine.Subscribe(context.Background(),
		enblogue.SubProfile(profile), enblogue.SubBuffer(4096))
	if err := engine.Run(context.Background(), apiStream()); err != nil {
		t.Fatal(err)
	}
	engine.Close()

	var last enblogue.Ranking
	for rn := range sub.Notifications() {
		r := rn.Ranking()
		last = r
	}
	cur := engine.CurrentRanking()
	var topics []persona.Topic
	for _, tp := range cur.Topics {
		topics = append(topics, persona.Topic{Pair: tp.Pair, Score: tp.Score})
	}
	want := persona.Rerank(topics, profile)
	if len(want) != len(last.Topics) {
		t.Fatalf("persona view %d topics, registry %d", len(last.Topics), len(want))
	}
	for i := range want {
		if last.Topics[i].Pair != want[i].Pair || last.Topics[i].Score != want[i].Score {
			t.Errorf("rank %d: (%v, %v) vs registry (%v, %v)",
				i, last.Topics[i].Pair, last.Topics[i].Score, want[i].Pair, want[i].Score)
		}
	}
}

// Run must honour context cancellation without flushing a partial tick.
func TestRunContextCancellation(t *testing.T) {
	engine := enblogue.New(apiOptions()...)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := enblogue.SourceFunc(func(ctx context.Context, emit func(*enblogue.Item)) error {
		for _, it := range apiStream() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			emit(it)
			n++
			if n == 100 {
				cancel()
			}
		}
		return nil
	})
	if err := engine.Run(ctx, src); err == nil {
		t.Fatal("Run returned nil after cancellation")
	}
	if engine.DocsProcessed() == 0 || engine.DocsProcessed() >= int64(len(apiStream())) {
		t.Errorf("DocsProcessed = %d, want partial consumption", engine.DocsProcessed())
	}
}

// The scenario facades must produce deterministic, ordered item streams
// with ground-truth events.
func TestScenarioFacades(t *testing.T) {
	a1, ev1 := enblogue.TweetScenario(12 * time.Hour)
	a2, ev2 := enblogue.TweetScenario(12 * time.Hour)
	if len(a1) == 0 || len(a1) != len(a2) {
		t.Fatalf("TweetScenario non-deterministic: %d vs %d items", len(a1), len(a2))
	}
	if len(ev1) == 0 || !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("TweetScenario events differ: %+v vs %+v", ev1, ev2)
	}
	for i := 1; i < len(a1); i++ {
		if a1[i].Time.Before(a1[i-1].Time) {
			t.Fatal("TweetScenario items out of order")
		}
	}
	items, events := enblogue.ArchiveScenario(time.Date(2007, 8, 1, 0, 0, 0, 0, time.UTC), 5)
	if len(items) == 0 || len(events) == 0 {
		t.Fatal("ArchiveScenario empty")
	}
	for _, e := range events {
		if e.Pair == (enblogue.Key{}) || e.Start.IsZero() || !e.End.After(e.Start) {
			t.Errorf("malformed scenario event %+v", e)
		}
	}
}
