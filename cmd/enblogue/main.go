// Command enblogue replays a JSONL dataset (or a built-in scenario)
// through the emergent-topic engine and prints each evaluation tick's
// top-k — the command-line twin of the paper's time-lapse demo, written
// entirely against the public enblogue package.
//
// Usage:
//
//	enblogue -in archive.jsonl -topk 10
//	enblogue -scenario tweets -measure cosine -predictor holt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"enblogue"
)

func main() {
	in := flag.String("in", "", "JSONL dataset to replay (empty: use -scenario)")
	scenario := flag.String("scenario", "tweets", "built-in scenario when -in is empty: tweets or archive")
	measure := flag.String("measure", "jaccard", "correlation measure (jaccard, dice, cosine, npmi, overlap, confidence)")
	predictor := flag.String("predictor", "ma", "predictor (naive, ma, ewma, holt, ols, ar1)")
	topk := flag.Int("topk", 10, "ranking length")
	seeds := flag.Int("seeds", 40, "seed tag count")
	windowH := flag.Int("window", 24, "sliding window in hours")
	tickH := flag.Int("tick", 1, "evaluation tick in hours")
	halfLifeH := flag.Int("halflife", 48, "score half-life in hours")
	upOnly := flag.Bool("up-only", true, "score only correlation increases")
	quiet := flag.Bool("quiet", false, "print only the final ranking")
	flag.Parse()

	m, err := enblogue.ParseMeasure(*measure)
	if err != nil {
		fatal(err)
	}
	p, err := enblogue.ParsePredictor(*predictor)
	if err != nil {
		fatal(err)
	}

	var items enblogue.Items
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		var skipped int
		items, skipped, err = enblogue.ReadItemsJSONL(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "enblogue: skipped %d malformed lines\n", skipped)
		}
	case *scenario == "tweets":
		items, _ = enblogue.TweetScenario(48 * time.Hour)
	case *scenario == "archive":
		items, _ = enblogue.ArchiveScenario(time.Date(2007, 8, 1, 0, 0, 0, 0, time.UTC), 25)
	default:
		fatal(fmt.Errorf("unknown scenario %q", *scenario))
	}

	opts := []enblogue.Option{
		enblogue.WithWindow(*windowH, time.Hour),
		enblogue.WithTickEvery(time.Duration(*tickH) * time.Hour),
		enblogue.WithSeedCount(*seeds),
		enblogue.WithMeasure(m),
		enblogue.WithPredictor(p),
		enblogue.WithHalfLife(time.Duration(*halfLifeH) * time.Hour),
		enblogue.WithTopK(*topk),
	}
	if *upOnly {
		opts = append(opts, enblogue.WithUpOnly())
	}
	engine := enblogue.New(opts...)

	// Per-tick progress arrives over a subscription rather than a
	// callback; the consumer goroutine drains in tick order.
	done := make(chan struct{})
	if !*quiet {
		sub := engine.Subscribe(context.Background(), enblogue.SubBuffer(1<<15))
		go func() {
			defer close(done)
			for rn := range sub.Notifications() {
				r := rn.Ranking()
				printRanking(r)
			}
			if n := sub.Dropped(); n > 0 {
				fmt.Printf("(%d ticks outran the printer and were not shown)\n", n)
			}
		}()
	} else {
		close(done)
	}

	if err := engine.Run(context.Background(), items); err != nil {
		fatal(err)
	}
	engine.Close()
	<-done

	r := engine.CurrentRanking()
	fmt.Printf("\nfinal ranking (%s, %d docs, %d active pairs):\n",
		r.At.Format(time.RFC3339), engine.DocsProcessed(), engine.ActivePairs())
	for i, t := range r.Topics {
		fmt.Printf("  %2d. %-40s score=%.4f corr=%.3f cooc=%.0f\n",
			i+1, t.Pair, t.Score, t.Correlation, t.Cooccurrence)
	}
}

// printRanking logs non-empty ticks compactly.
func printRanking(r enblogue.Ranking) {
	if len(r.Topics) == 0 {
		return
	}
	top := r.Topics[0]
	fmt.Printf("%s  top: %-36s score=%.4f  (%d topics)\n",
		r.At.Format("Jan 02 15:04"), top.Pair, top.Score, len(r.Topics))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "enblogue: %v\n", err)
	os.Exit(1)
}
