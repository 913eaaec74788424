package pairs_test

import (
	"fmt"
	"time"

	"enblogue/internal/pairs"
)

func ExampleMeasure_Compute() {
	// 6 documents carry both tags, 10 carry "iceland", 8 carry "volcano",
	// 100 documents total in the window.
	fmt.Printf("jaccard: %.3f\n", pairs.Jaccard.Compute(6, 10, 8, 100))
	fmt.Printf("cosine:  %.3f\n", pairs.Cosine.Compute(6, 10, 8, 100))
	fmt.Printf("overlap: %.3f\n", pairs.Overlap.Compute(6, 10, 8, 100))
	// Output:
	// jaccard: 0.500
	// cosine:  0.671
	// overlap: 0.750
}

func ExampleTracker() {
	tr := pairs.NewTracker(pairs.Config{Buckets: 24, Resolution: time.Hour})
	isSeed := func(tag string) bool { return tag == "iceland" }

	t0 := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	tr.ObserveBatch([]pairs.BatchDoc{
		{Time: t0, Tags: []string{"iceland", "volcano", "travel"}},
		{Time: t0.Add(time.Hour), Tags: []string{"iceland", "volcano"}},
	}, isSeed)

	k := pairs.MakeKey("volcano", "iceland") // canonical regardless of order
	fmt.Println(k, "co-occurs in", tr.Cooccurrence(k), "documents")
	// The (volcano, travel) pair contains no seed: not tracked.
	fmt.Println("tracked pairs:", tr.ActivePairs())
	// Output:
	// iceland+volcano co-occurs in 2 documents
	// tracked pairs: 2
}

func ExampleMakeKey() {
	a := pairs.MakeKey("volcano", "iceland")
	b := pairs.MakeKey("iceland", "volcano")
	fmt.Println(a == b, a.String())
	// Output:
	// true iceland+volcano
}
