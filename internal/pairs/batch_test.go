package pairs

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

// batchDocsFrom pairs a random tag stream with one-minute-spaced
// timestamps, the shape ObserveBatch consumes.
func batchDocsFrom(stream [][]string) []BatchDoc {
	docs := make([]BatchDoc, len(stream))
	for i, tags := range stream {
		docs[i] = BatchDoc{Time: shT0.Add(time.Duration(i) * time.Minute), Tags: tags}
	}
	return docs
}

// trackerState flattens a tracker into a comparable form: every tracked
// pair with its windowed co-occurrence as of the tracker clock.
func trackerState(tr *Tracker) map[Key]float64 {
	out := make(map[Key]float64)
	for _, pc := range tr.AppendSnapshot(nil) {
		out[pc.Key] = pc.Count
	}
	return out
}

// observeInBatches feeds docs through ObserveBatch in runs of batch
// documents.
func observeInBatches(tr *Tracker, docs []BatchDoc, batch int) {
	for lo := 0; lo < len(docs); lo += batch {
		tr.ObserveBatch(docs[lo:min(lo+batch, len(docs))], seedEven)
	}
}

// seedEven marks half the vocabulary as seeds so candidate generation
// exercises both accepted and rejected pairs.
func seedEven(tag string) bool {
	var n int
	fmt.Sscanf(tag, "t%d", &n)
	return n%2 == 0
}

// TestObserveBatchMatchesSerial pins the tracker half of the batched
// determinism contract: for every batch size — batch boundaries chosen to
// split documents arbitrarily — feeding the stream through ObserveBatch
// leaves the tracker with exactly the pairs and windowed counts that
// document-at-a-time observation produces, including the sweep schedule
// (sweeps are document-count driven and ObserveBatch checks the triggers
// after every document). The "shards-1" level names the tracker's one
// partition; it keeps the subtest names of the sharded era.
func TestObserveBatchMatchesSerial(t *testing.T) {
	stream := randomStream(42, 3000, 60, 4)
	docs := batchDocsFrom(stream)
	cfg := Config{SweepEvery: 256}
	serial := NewTracker(cfg)
	observeInBatches(serial, docs, 1)
	want := trackerState(serial)
	if len(want) == 0 {
		t.Fatal("serial tracker tracked no pairs; workload too small")
	}
	for _, batch := range []int{1, 7, 64, 4096} {
		t.Run(fmt.Sprintf("shards-1/batch-%d", batch), func(t *testing.T) {
			tr := NewTracker(cfg)
			observeInBatches(tr, docs, batch)
			if got := trackerState(tr); !reflect.DeepEqual(got, want) {
				t.Fatalf("batched state diverges: %d pairs vs %d serial", len(got), len(want))
			}
			if got, wantN := tr.ActivePairs(), serial.ActivePairs(); got != wantN {
				t.Errorf("ActivePairs = %d, want %d", got, wantN)
			}
		})
	}
}

// TestObserveBatchMatchesSerialUnderEviction repeats the equivalence check
// with a pair budget far below the stream's pair cardinality, so sweeps
// evict continuously: eviction order (smallest windowed count first, ties
// broken deterministically) must be reproduced exactly, since which pairs
// survive feeds directly into which topics can emerge.
func TestObserveBatchMatchesSerialUnderEviction(t *testing.T) {
	stream := randomStream(7, 4000, 120, 5)
	docs := batchDocsFrom(stream)
	cfg := Config{MaxPairs: 150, SweepEvery: 128}
	serial := NewTracker(cfg)
	observeInBatches(serial, docs, 1)
	want := trackerState(serial)
	for _, batch := range []int{3, 64, 1000} {
		t.Run(fmt.Sprintf("shards-1/batch-%d", batch), func(t *testing.T) {
			tr := NewTracker(cfg)
			observeInBatches(tr, docs, batch)
			got := trackerState(tr)
			if !reflect.DeepEqual(got, want) {
				var missing, extra []Key
				for k := range want {
					if _, ok := got[k]; !ok {
						missing = append(missing, k)
					}
				}
				for k := range got {
					if _, ok := want[k]; !ok {
						extra = append(extra, k)
					}
				}
				t.Fatalf("eviction diverges: %d missing, %d extra of %d serial pairs",
					len(missing), len(extra), len(want))
			}
		})
	}
}

// TestDistTrackerObserveBatchMatchesSerial pins the distribution-mode
// equivalent: batched observation must leave identical per-tag co-tag
// distributions, since those distributions are the correlation signal in
// distribution mode.
func TestDistTrackerObserveBatchMatchesSerial(t *testing.T) {
	stream := randomStream(13, 1500, 40, 4)
	docs := batchDocsFrom(stream)
	cfg := Config{}
	serial := NewDistTracker(cfg)
	for _, d := range docs {
		serial.ObserveBatch([]BatchDoc{d})
	}
	batched := NewDistTracker(cfg)
	for lo := 0; lo < len(docs); lo += 64 {
		hi := lo + 64
		if hi > len(docs) {
			hi = len(docs)
		}
		batched.ObserveBatch(docs[lo:hi])
	}
	// Compare through the public read: every tag's co-tag distribution at
	// the final clock. Collect the tag universe from the stream itself.
	tags := map[string]bool{}
	for _, d := range docs {
		for _, tag := range d.Tags {
			tags[tag] = true
		}
	}
	var names []string
	for tag := range tags {
		names = append(names, tag)
	}
	sort.Strings(names)
	for _, tag := range names {
		want := serial.Distribution(tag)
		got := batched.Distribution(tag)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("distribution for %q diverges:\n got  %v\n want %v", tag, got, want)
		}
	}
}
