// Acceptance tests for the engine's determinism contract. With the sketch
// tail disabled (the default), the full broadcast ranking sequence of every
// pinned configuration — both bundled scenarios, uncapped and under
// eviction caps, and distribution mode — must reproduce a golden SHA-256
// digest byte for byte. The digests were recorded from the one-shard
// engine of the sharded era, so any refactor of the tracking, detection or
// tick path that moves a score by one ULP, reorders a tie, or shifts a tick
// fails here. An enabled but unpressured tail must be inert.
package enblogue_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"
	"time"

	"enblogue"
)

// runRankings feeds items through a fresh engine and returns every
// broadcast ranking plus the engine for post-run inspection.
func runRankings(t *testing.T, items enblogue.Items, opts ...enblogue.Option) ([]enblogue.Ranking, *enblogue.Engine) {
	t.Helper()
	engine := enblogue.New(opts...)
	sub := engine.Subscribe(context.Background(), enblogue.SubBuffer(1<<14))
	if err := engine.Run(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	engine.Close()
	var got []enblogue.Ranking
	for rn := range sub.Notifications() {
		got = append(got, rn.Ranking())
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d rankings with a huge buffer", sub.Dropped())
	}
	if len(got) == 0 {
		t.Fatal("no rankings delivered")
	}
	return got, engine
}

func mustEqualRankings(t *testing.T, label string, got, want []enblogue.Ranking) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ticks vs reference %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: tick %d differs from reference:\n%+v\nvs\n%+v", label, i, got[i], want[i])
		}
	}
}

// digestOptions is the shared engine shape of every digest configuration:
// a 12-hour window, a small seed set and top-k so eviction caps bite.
func digestOptions(extra ...enblogue.Option) []enblogue.Option {
	return append([]enblogue.Option{
		enblogue.WithWindow(12, time.Hour),
		enblogue.WithSeedCount(10),
		enblogue.WithSeedWarmup(20),
		enblogue.WithTopK(10),
	}, extra...)
}

// writeString appends a length-prefixed string to the digest.
func writeString(h hash.Hash, s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// writeUint64 appends a little-endian word to the digest.
func writeUint64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// rankingDigest hashes a ranking sequence's canonical bytes: per ranking
// its At in unix nanos, its seeds, and per topic the pair string and the
// float64 bits of Score, Correlation, Predicted, Error and Cooccurrence.
// Every variable-length part is length-prefixed, so distinct sequences
// cannot collide by concatenation.
func rankingDigest(rs []enblogue.Ranking) string {
	h := sha256.New()
	writeUint64(h, uint64(len(rs)))
	for _, r := range rs {
		writeUint64(h, uint64(r.At.UnixNano()))
		writeUint64(h, uint64(len(r.Seeds)))
		for _, s := range r.Seeds {
			writeString(h, s)
		}
		writeUint64(h, uint64(len(r.Topics)))
		for _, tp := range r.Topics {
			writeString(h, tp.Pair.String())
			for _, f := range []float64{tp.Score, tp.Correlation, tp.Predicted, tp.Error, tp.Cooccurrence} {
				writeUint64(h, math.Float64bits(f))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTailDisabledRankingsBitIdentical pins every configuration's full
// broadcast ranking sequence to its golden digest. Alongside the digest it
// checks what each run must show regardless: the last broadcast equals
// CurrentRanking, no tier state exists without WithTailSketch, and a cap
// below the workload's pair count actually evicts. (At MaxPairs 200 the
// archive never exceeds the cap, but the cap still moves the sweep
// schedule, so its digest differs from the uncapped one.)
func TestTailDisabledRankingsBitIdentical(t *testing.T) {
	tweets, _ := enblogue.TweetScenario(12 * time.Hour)
	archive, _ := enblogue.ArchiveScenario(time.Date(2007, 8, 1, 0, 0, 0, 0, time.UTC), 5)
	cases := []struct {
		name          string
		items         enblogue.Items
		opts          []enblogue.Option
		wantEvictions bool
		want          string
	}{
		{"tweets", tweets, []enblogue.Option{enblogue.WithMaxPairs(300)}, true,
			"c7c815f8bd951d1c9fa85314ed74b4d79fa9977a05b378d186c4abeb76d5edbe"},
		{"tweets-uncapped", tweets, nil, false,
			"c7c815f8bd951d1c9fa85314ed74b4d79fa9977a05b378d186c4abeb76d5edbe"},
		{"archive", archive, nil, false,
			"0cc52f7f068cf268f25d0c5bab80fc977a0d7833dbca864dc06fd075d362d4c5"},
		{"archive-maxpairs-100", archive, []enblogue.Option{enblogue.WithMaxPairs(100)}, true,
			"e882c2e1b8601df40bf10e349bacf2e2708530932c457a7695742146e742b2e3"},
		{"archive-maxpairs-200", archive, []enblogue.Option{enblogue.WithMaxPairs(200)}, false,
			"1b865f073ca74518dbc25f830f62035ec2e155ac1af2694829649a712bc774e5"},
		{"archive-distribution", archive, []enblogue.Option{enblogue.WithDistributionMode()}, false,
			"6e34138c13d482d7d60f9afb99785b65523a1c35900fd7ab5b832654e3667021"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, engine := runRankings(t, tc.items, digestOptions(tc.opts...)...)
			if cur := engine.CurrentRanking(); !reflect.DeepEqual(got[len(got)-1], cur) {
				t.Fatalf("last broadcast != CurrentRanking\nbroadcast: %+v\ncurrent:   %+v", got[len(got)-1], cur)
			}
			ts := engine.TailStats()
			if ts.Enabled || ts.TailPairs != 0 || ts.Promotions != 0 || ts.ApproxSeededPairs != 0 {
				t.Fatalf("tier state without WithTailSketch: %+v", ts)
			}
			evicted, demoted := ts.EvictedByShard[0], ts.DemotedByShard[0]
			if tc.wantEvictions && evicted == 0 {
				t.Fatal("no evictions: the cap does not exercise the eviction path")
			}
			if demoted != 0 {
				t.Fatalf("%d demotions with the tail disabled", demoted)
			}
			if d := rankingDigest(got); d != tc.want {
				t.Errorf("digest over %d rankings = %s, want %s", len(got), d, tc.want)
			}
		})
	}
}

// An enabled tail under no eviction pressure must change nothing: no pair
// is ever demoted, so promotion never fires and rankings stay bit-identical
// to the default engine's.
func TestTailSketchInertWithoutEvictionPressure(t *testing.T) {
	tweets, _ := enblogue.TweetScenario(12 * time.Hour)
	want, _ := runRankings(t, tweets, digestOptions()...)
	got, engine := runRankings(t, tweets, digestOptions(enblogue.WithTailSketch(0.01, 0.01, 256))...)

	ts := engine.TailStats()
	if !ts.Enabled {
		t.Fatal("WithTailSketch did not enable the tier")
	}
	if ts.TailPairs != 0 || ts.Promotions != 0 || ts.ApproxSeededPairs != 0 {
		t.Fatalf("unpressured tail absorbed state: %+v", ts)
	}
	mustEqualRankings(t, "tail-enabled-unpressured", got, want)
}
