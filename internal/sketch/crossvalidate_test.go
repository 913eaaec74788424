package sketch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"enblogue/internal/tagstats"
)

// The approximate synopsis must agree with the exact windowed statistics it
// is meant to stand in for: on a strongly Zipf-skewed stream, Space-Saving's
// head should match the exact tracker's head, and Count-Min estimates
// should bracket true counts within the design error.
func TestSketchAgreesWithExactTagStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.6, 1, 499)

	exact := tagstats.NewTracker(tagstats.Config{
		Buckets: 1000, Resolution: time.Hour, // effectively unbounded window
	})
	cm := NewCountMinWithError(0.005, 0.01)
	tk := NewTopKU64(50)
	truth := map[uint64]uint64{}
	tagOf := func(key uint64) string { return fmt.Sprintf("tag%03d", key) }

	t0 := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	const n = 30000
	for i := 0; i < n; i++ {
		key := zipf.Uint64()
		exact.Observe(t0.Add(time.Duration(i)*time.Second), []string{tagOf(key)})
		cm.AddU64(key, 1)
		tk.Add(key, 1)
		truth[key]++
	}

	// Exact top-10 vs Space-Saving top-10: heads must share >= 8 tags.
	exactTop := exact.Top(10, tagstats.ByPopularity, 0)
	approx := map[string]bool{}
	for i, e := range tk.Entries() {
		if i >= 10 {
			break
		}
		approx[tagOf(e.Key)] = true
	}
	shared := 0
	for _, e := range exactTop {
		if approx[e.Tag] {
			shared++
		}
	}
	if shared < 8 {
		t.Errorf("approximate top-10 shares only %d/10 tags with exact", shared)
	}

	// Count-Min: bounded one-sided error on every true count.
	for key, want := range truth {
		got := cm.CountU64(key)
		if got < want {
			t.Fatalf("Count-Min underestimated %s: %d < %d", tagOf(key), got, want)
		}
		if got > want+uint64(0.005*float64(n))+1 {
			t.Errorf("Count-Min overestimate on %s: %d vs %d", tagOf(key), got, want)
		}
	}
}
