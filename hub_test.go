// Acceptance tests of the multi-tenant Hub: a tenant engine is a full
// engine, so its ranking stream must be bit-identical to a standalone
// enblogue.New engine fed the same item sequence — for every scenario, with
// other tenants active in the same hub.
package enblogue_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"enblogue"
)

// runEngine drains items through e and returns every delivered ranking.
func runEngine(t *testing.T, e *enblogue.Engine, items enblogue.Items) []enblogue.Ranking {
	t.Helper()
	sub := e.Subscribe(context.Background(), enblogue.SubBuffer(8192))
	if err := e.Run(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	var out []enblogue.Ranking
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rn := range sub.Notifications() {
			r := rn.Ranking()
			out = append(out, r)
		}
	}()
	sub.Close()
	<-done
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d frames with a huge buffer", sub.Dropped())
	}
	return out
}

// scenarioOptions tunes the engines down to test scale.
func scenarioOptions() []enblogue.Option {
	return []enblogue.Option{
		enblogue.WithWindow(12, time.Hour),
		enblogue.WithSeedCount(15),
		enblogue.WithSeedMinCount(2),
		enblogue.WithSeedWarmup(30),
		enblogue.WithMinCooccurrence(2),
		enblogue.WithTopK(10),
	}
}

// Acceptance: for each scenario, a hub tenant's rankings are bit-identical
// to a standalone engine fed the same items — while a second tenant in the
// same hub concurrently consumes the OTHER scenario. The "shards-1" level
// names the engine's one partition and keeps the subtest names of the
// sharded era.
func TestHubTenantBitIdenticalToStandalone(t *testing.T) {
	tweets, _ := enblogue.TweetScenario(12 * time.Hour)
	archive, _ := enblogue.ArchiveScenario(time.Date(2007, 8, 1, 0, 0, 0, 0, time.UTC), 5)
	scenarios := []struct {
		name  string
		items enblogue.Items
		other enblogue.Items
	}{
		{"tweets", tweets, archive},
		{"archive", archive, tweets},
	}
	for _, sc := range scenarios {
		t.Run(sc.name+"/shards-1", func(t *testing.T) {
			standalone := enblogue.New(scenarioOptions()...)
			want := runEngine(t, standalone, sc.items)
			standalone.Close()
			if len(want) == 0 {
				t.Fatal("standalone run produced no rankings")
			}

			hub := enblogue.NewHub(enblogue.HubDefaults(scenarioOptions()...))
			defer hub.Close()
			tenant, err := hub.Open("subject")
			if err != nil {
				t.Fatal(err)
			}
			noise, err := hub.Open("noise")
			if err != nil {
				t.Fatal(err)
			}
			// The noise tenant runs the other scenario concurrently: a
			// tenant's rankings must not depend on its neighbours.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = noise.Run(context.Background(), sc.other)
			}()
			got := runEngine(t, tenant, sc.items)
			wg.Wait()

			if !reflect.DeepEqual(got, want) {
				if len(got) != len(want) {
					t.Fatalf("%d tenant ticks vs %d standalone", len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("tick %d differs:\ntenant:     %+v\nstandalone: %+v",
							i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestPublicHubOptionLayering(t *testing.T) {
	hub := enblogue.NewHub(
		enblogue.HubDefaults(enblogue.WithTopK(7), enblogue.WithTailSketch(0.01, 0.01, 64)),
		enblogue.HubMaxTenants(2),
	)
	defer hub.Close()

	a, err := hub.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	// TailStats reports the sketch's effective epsilon (e / width), within
	// a few percent of the configured one.
	if ts := a.TailStats(); !ts.Enabled || math.Abs(ts.Epsilon-0.01) > 0.001 {
		t.Errorf("hub default tail sketch not applied: %+v", ts)
	}
	// Tenant-level option overrides the hub default.
	b, err := hub.Open("b", enblogue.WithTailSketch(0.05, 0.01, 64))
	if err != nil {
		t.Fatal(err)
	}
	if ts := b.TailStats(); math.Abs(ts.Epsilon-0.05) > 0.005 {
		t.Errorf("tenant override not applied: epsilon %v", ts.Epsilon)
	}
	if _, err := hub.Open("c"); err == nil {
		t.Error("HubMaxTenants(2) admitted a third tenant")
	}
	if got := hub.List(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("List = %v", got)
	}
	if _, ok := hub.Get("a"); !ok {
		t.Error("Get(a) = false")
	}
	if err := enblogue.ValidateTenantName("a/b"); err == nil {
		t.Error("ValidateTenantName accepted a slash")
	}
	if !hub.CloseTenant("a") || hub.CloseTenant("a") {
		t.Error("CloseTenant not reporting existence correctly")
	}
	if hub.Len() != 1 {
		t.Errorf("Len = %d", hub.Len())
	}
	if s := hub.Stats(); s.Tenants != 1 {
		t.Errorf("Stats = %+v", s)
	}
}
