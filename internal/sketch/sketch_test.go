package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountMinExact(t *testing.T) {
	c := NewCountMin(4, 1024)
	c.AddU64(1, 3)
	c.AddU64(2, 5)
	c.AddU64(1, 2)
	if got := c.CountU64(1); got != 5 {
		t.Errorf("CountU64(1) = %d, want 5", got)
	}
	if got := c.CountU64(2); got != 5 {
		t.Errorf("CountU64(2) = %d, want 5", got)
	}
	if got := c.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	f := func(keys []uint64) bool {
		c := NewCountMin(3, 64)
		truth := map[uint64]uint64{}
		for _, k := range keys {
			c.AddU64(k, 1)
			truth[k]++
		}
		for k, n := range truth {
			if c.CountU64(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// epsilon=0.01, delta=0.01: overestimate should be <= eps*N nearly always.
	c := NewCountMinWithError(0.01, 0.01)
	rng := rand.New(rand.NewSource(42))
	truth := map[uint64]uint64{}
	const n = 50000
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(2000))
		c.AddU64(k, 1)
		truth[k]++
	}
	bad := 0
	for k, want := range truth {
		if c.CountU64(k) > want+uint64(0.01*float64(n)) {
			bad++
		}
	}
	if bad > len(truth)/50 {
		t.Errorf("%d/%d keys exceed the epsilon error bound", bad, len(truth))
	}
}

func TestCountMinReset(t *testing.T) {
	c := NewCountMin(2, 16)
	c.AddU64(7, 7)
	c.Reset()
	if got := c.CountU64(7); got != 0 {
		t.Errorf("after Reset CountU64 = %d, want 0", got)
	}
	if got := c.Total(); got != 0 {
		t.Errorf("after Reset Total = %d, want 0", got)
	}
}

func TestCountMinPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero depth":  func() { NewCountMin(0, 8) },
		"zero width":  func() { NewCountMin(8, 0) },
		"bad epsilon": func() { NewCountMinWithError(0, 0.1) },
		"bad delta":   func() { NewCountMinWithError(0.1, 1) },
		"topk zero":   func() { NewTopKU64(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk := NewTopKU64(10)
	for i := uint64(0); i < 5; i++ {
		for j := uint64(0); j <= i; j++ {
			tk.Add(i, 1)
		}
	}
	es := tk.Entries()
	if len(es) != 5 {
		t.Fatalf("got %d entries, want 5", len(es))
	}
	if es[0].Key != 4 || es[0].Count != 5 || es[0].Error != 0 {
		t.Errorf("top entry = %+v, want 4/5/0", es[0])
	}
	if es[4].Key != 0 || es[4].Count != 1 {
		t.Errorf("bottom entry = %+v, want 0/1", es[4])
	}
}

func TestTopKFindsHeavyHitters(t *testing.T) {
	const heavy1, heavy2 = 1 << 40, 1<<40 + 1
	tk := NewTopKU64(20)
	rng := rand.New(rand.NewSource(1))
	// Two heavy keys among uniform noise.
	for i := 0; i < 20000; i++ {
		switch {
		case i%4 == 0:
			tk.Add(heavy1, 1)
		case i%5 == 0:
			tk.Add(heavy2, 1)
		default:
			tk.Add(uint64(rng.Intn(5000)), 1)
		}
	}
	es := tk.Entries()
	if es[0].Key != heavy1 {
		t.Errorf("top key = %d, want heavy1", es[0].Key)
	}
	if es[1].Key != heavy2 {
		t.Errorf("second key = %d, want heavy2", es[1].Key)
	}
	if _, ok := tk.Count(heavy1); !ok {
		t.Error("Count(heavy1) not tracked")
	}
	if _, ok := tk.Count(1 << 50); ok {
		t.Error("Count of absent key reported as tracked")
	}
}

// Property: on a unit-weight stream, the Space-Saving count is always an
// upper bound on the true count, and Count - Error is a lower bound.
func TestTopKBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		tk := NewTopKU64(8)
		truth := map[uint64]uint64{}
		for _, r := range raw {
			k := uint64(r % 32)
			tk.Add(k, 1)
			truth[k]++
		}
		for _, e := range tk.Entries() {
			n := truth[e.Key]
			if e.Count < n {
				return false
			}
			if e.Count-e.Error > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
