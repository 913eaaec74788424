package rank

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestListLookups(t *testing.T) {
	l := List{{"a", 9}, {"b", 2}, {"c", 2}}
	if !reflect.DeepEqual(l.IDs(), []string{"a", "b", "c"}) {
		t.Errorf("IDs = %v", l.IDs())
	}
	pos := l.Positions()
	if len(pos) != 3 || pos["a"] != 0 || pos["b"] != 1 || pos["c"] != 2 {
		t.Errorf("Positions = %v", pos)
	}
	if _, ok := pos["zzz"]; ok {
		t.Error("Positions holds an absent ID")
	}
}

func TestDiff(t *testing.T) {
	prev := List{{"a", 3}, {"b", 2}, {"c", 1}}
	cur := List{{"b", 5}, {"a", 4}, {"d", 1}}
	moves := Diff(prev, cur)
	want := []Move{
		{ID: "b", From: 1, To: 0},
		{ID: "a", From: 0, To: 1},
		{ID: "d", From: -1, To: 2},
		{ID: "c", From: 2, To: -1},
	}
	if !reflect.DeepEqual(moves, want) {
		t.Errorf("Diff = %+v, want %+v", moves, want)
	}
}

func TestDiffNoChanges(t *testing.T) {
	l := List{{"a", 2}, {"b", 1}}
	if moves := Diff(l, l); len(moves) != 0 {
		t.Errorf("Diff of identical lists = %+v, want empty", moves)
	}
}

func TestOverlap(t *testing.T) {
	a := List{{"x", 3}, {"y", 2}}
	b := List{{"y", 9}, {"z", 8}}
	if got := Overlap(a, b); got != 0.5 {
		t.Errorf("Overlap = %v, want 0.5", got)
	}
	if got := Overlap(nil, nil); got != 1 {
		t.Errorf("Overlap(nil,nil) = %v, want 1", got)
	}
	if got := Overlap(a, nil); got != 0 {
		t.Errorf("Overlap(a,nil) = %v, want 0", got)
	}
}

func TestKendallTau(t *testing.T) {
	a := List{{"a", 4}, {"b", 3}, {"c", 2}, {"d", 1}}
	same := List{{"a", 9}, {"b", 8}, {"c", 7}, {"d", 6}}
	reversed := List{{"d", 9}, {"c", 8}, {"b", 7}, {"a", 6}}
	if got := KendallTau(a, same); got != 1 {
		t.Errorf("tau(identical) = %v, want 1", got)
	}
	if got := KendallTau(a, reversed); got != -1 {
		t.Errorf("tau(reversed) = %v, want -1", got)
	}
	// One adjacent swap among 4: 5 concordant, 1 discordant → 4/6.
	swapped := List{{"a", 9}, {"c", 8}, {"b", 7}, {"d", 6}}
	if got := KendallTau(a, swapped); got != float64(4)/float64(6) {
		t.Errorf("tau(one swap) = %v, want 2/3", got)
	}
	// Fewer than 2 common IDs.
	if got := KendallTau(a, List{{"zzz", 1}}); got != 1 {
		t.Errorf("tau(disjoint) = %v, want 1", got)
	}
}

// Property: KendallTau is symmetric and bounded in [-1, 1].
func TestKendallTauProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		mk := func() List {
			perm := rng.Perm(n)
			l := make(List, n)
			for i, p := range perm {
				l[i] = Entry{ID: fmt.Sprintf("id%d", p), Score: float64(n - i)}
			}
			return l
		}
		a, b := mk(), mk()
		t1, t2 := KendallTau(a, b), KendallTau(b, a)
		return t1 == t2 && t1 >= -1 && t1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Diff moves are internally consistent — every To rank exists in
// cur, every From rank exists in prev.
func TestDiffConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() List {
			n := rng.Intn(6)
			l := make(List, 0, n)
			used := map[string]bool{}
			for i := 0; i < n; i++ {
				id := fmt.Sprintf("id%d", rng.Intn(8))
				if used[id] {
					continue
				}
				used[id] = true
				l = append(l, Entry{ID: id, Score: rng.Float64()})
			}
			return l
		}
		prev, cur := mk(), mk()
		for _, m := range Diff(prev, cur) {
			if m.To >= 0 && (m.To >= len(cur) || cur[m.To].ID != m.ID) {
				return false
			}
			if m.From >= 0 && (m.From >= len(prev) || prev[m.From].ID != m.ID) {
				return false
			}
			if m.From == -1 && m.To == -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKendallTau(b *testing.B) {
	var a, c List
	for i := 0; i < 50; i++ {
		a = append(a, Entry{ID: fmt.Sprintf("e%d", i), Score: float64(i)})
		c = append(c, Entry{ID: fmt.Sprintf("e%d", (i*7)%50), Score: float64(i)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KendallTau(a, c)
	}
}
