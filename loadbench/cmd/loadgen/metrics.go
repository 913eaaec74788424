package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"enblogue/loadbench/trace"
)

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// openWindows is how many equal windows the measured open loop is cut
// into. The median latency is taken per window and the median over the
// windows is reported, so a pause that hits one window does not move it.
// A window holds too few samples for a p99, so the p99 is taken per round
// (per pass) and the median over the rounds is reported.
const openWindows = 10

// windowOf returns the open-loop window POST j falls in.
func windowOf(ps *pass, j int) int {
	return (j - ps.open[0]) * openWindows / max(ps.open[1]-ps.open[0], 1)
}

// ackLatencies returns the measured open-loop POSTs' latencies from their
// due times, in ms, per window.
func ackLatencies(ps *pass) [][]float64 {
	out := make([][]float64, openWindows)
	for j := ps.open[0]; j < ps.open[1]; j++ {
		r := &ps.posts[j]
		w := windowOf(ps, j)
		out[w] = append(out[w], ms(r.ack-r.due))
	}
	return out
}

// notifyLatencies returns, for every tick fired by a measured open-loop
// POST, the time from that POST's due time until the generator read the
// tick's frame, in ms, per window of the POST.
func notifyLatencies(ps *pass) [][]float64 {
	out := make([][]float64, openWindows)
	for _, at := range ps.p.ticks {
		j := ps.p.tickPost[at]
		f := ps.frames[at]
		if j < ps.open[0] || j >= ps.open[1] || f == nil {
			continue
		}
		w := windowOf(ps, j)
		out[w] = append(out[w], ms(f.recv-ps.posts[j].due))
	}
	return out
}

// windowed returns the median over windows of each window's q-quantile,
// and the total sample count.
func windowed(ws [][]float64, q float64) (float64, int) {
	var xs []float64
	n := 0
	for _, w := range ws {
		if len(w) > 0 {
			xs = append(xs, percentile(w, q))
			n += len(w)
		}
	}
	return median(xs), n
}

// pooled returns the q-quantile of all the windows' samples together.
func pooled(ws [][]float64, q float64) float64 {
	var all []float64
	for _, w := range ws {
		all = append(all, w...)
	}
	return percentile(all, q)
}

// docsPerSec is the median over the passes' closed-loop windows of
// documents acknowledged per wall second.
func docsPerSec(passes ...*pass) float64 {
	var xs []float64
	for _, ps := range passes {
		for _, w := range ps.windows {
			xs = append(xs, float64(w.docs)/w.elapsed.Seconds())
		}
	}
	return median(xs)
}

// cpuPerDoc is the median over the passes' closed-loop windows of the
// system under test's CPU time per acknowledged document, in µs.
func cpuPerDoc(passes []*pass) (float64, int) {
	var xs []float64
	docs := 0
	for _, ps := range passes {
		for _, w := range ps.windows {
			xs = append(xs, float64(w.cpu.Microseconds())/float64(max(w.docs, 1)))
			docs += w.docs
		}
	}
	return median(xs), docs
}

// endToEnd computes the metrics a producer or subscriber sees, each a
// median over the passes' windows, processes or starts. The p99 latencies
// are returned apart: they swing with the state of a shared machine by
// more than any bound the benchmark may set, so they are reported but not
// gated.
func endToEnd(passes []*pass) (gated, tails []measure) {
	var ack, notify [][]float64
	var ack99, notify99, hwm, setups []float64
	satPosts := 0
	for _, ps := range passes {
		a, n := ackLatencies(ps), notifyLatencies(ps)
		ack, notify = append(ack, a...), append(notify, n...)
		ack99, notify99 = append(ack99, pooled(a, 0.99)), append(notify99, pooled(n, 0.99))
		hwm = append(hwm, ps.hwmMB)
		setups = append(setups, ps.setups...)
		satPosts += ps.sat[1] - ps.sat[0]
	}
	cpu, docs := cpuPerDoc(passes)
	ack50, nAck := windowed(ack, 0.50)
	notify50, nNotify := windowed(notify, 0.50)
	gated = []measure{
		{"docs_per_s", "docs/s", docsPerSec(passes...), satPosts},
		{"ack_p50_ms", "ms", ack50, nAck},
		{"notify_p50_ms", "ms", notify50, nNotify},
		{"cpu_us_per_doc", "us", cpu, docs},
		{"peak_rss_mb", "MB", median(hwm), len(hwm)},
		{"setup_s", "s", median(setups), len(setups)},
	}
	tails = []measure{
		{"ack_p99_ms", "ms", median(ack99), nAck},
		{"notify_p99_ms", "ms", median(notify99), nNotify},
	}
	return gated, tails
}

// allSpans merges the generator's spans with the system under test's.
func allSpans(ps *pass) []trace.Span {
	spans := append([]trace.Span(nil), ps.report.Spans...)
	for j, r := range ps.posts {
		spans = append(spans, trace.Span{Layer: trace.LoadgenPost, Seq: int64(j), Start: r.send, End: r.ack})
	}
	for at, f := range ps.frames {
		spans = append(spans, trace.Span{Layer: trace.LoadgenFrame, Seq: -1, At: at, Start: f.recv, End: f.recv})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// writeSpans writes the spans as JSONL under the work directory.
func writeSpans(cfg *config, spans []trace.Span) (string, error) {
	dir := filepath.Join(cfg.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// perLayer computes the per-layer metrics of a traced pass; plain is the
// untraced pass measured just before it.
func perLayer(plain, traced *pass, spans []trace.Span) []measure {
	rep := traced.report
	var (
		reqNS, consumeNS        = map[int64]int64{}, map[int64]int64{}
		reqDocs                 = map[int64]int{}
		ingestNS, tickNS        int64
		ingestDocs, ticks       int
		tickUS, sseUS, snapMS   []float64
		recv, tickEnd, sseEnd   = map[int64]int64{}, map[int64]int64{}, map[int64]int64{}
		publishUS, dispatchUS   []float64
		lagMS                   []float64
		backlogMax, serverSpans int
	)
	for i := range spans {
		s := &spans[i]
		d := s.End - s.Start
		switch s.Layer {
		case trace.ServerRequest:
			reqNS[s.Seq] += d
			serverSpans++
		case trace.CoreIngest:
			consumeNS[s.Seq] += d
			reqDocs[s.Seq] += s.Docs
			ingestNS += d
			ingestDocs += s.Docs
		case trace.CoreTick:
			consumeNS[s.Seq] += d
			reqDocs[s.Seq] += s.Docs
			tickNS += d
			ticks += s.Ticks
			for k := 0; k < s.Ticks; k++ {
				tickUS = append(tickUS, us(d)/float64(s.Ticks))
			}
			tickEnd[s.At] = s.End
		case trace.ServerSSEWrite:
			sseUS = append(sseUS, us(d))
			sseEnd[s.At] = s.End
		case trace.HarnessReceive:
			recv[s.At] = s.Start
		case trace.PersistSnapshot:
			snapMS = append(snapMS, ms(d))
		}
	}
	var selfNS int64
	var selfDocs int
	for seq, d := range reqNS {
		selfNS += d - consumeNS[seq]
		selfDocs += reqDocs[seq]
	}
	for at, end := range tickEnd {
		if r, ok := recv[at]; ok {
			dispatchUS = append(dispatchUS, us(max(r-end, 0)))
		}
	}
	for at, end := range sseEnd {
		if r, ok := recv[at]; ok {
			publishUS = append(publishUS, us(end-r))
		}
	}
	for _, r := range traced.posts[traced.open[0]:traced.open[1]] {
		lagMS = append(lagMS, ms(r.send-r.due))
		backlogMax = max(backlogMax, r.backlog)
	}
	matched := 0.0
	if rep.MatchedN > 0 {
		matched = rep.MatchedSum / float64(rep.MatchedN)
	}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	docs := int(rep.Docs)
	return []measure{
		{"server.self_us_per_doc", "us", per(us(selfNS), selfDocs), serverSpans},
		{"server.sse_write_us_p99", "us", percentile(sseUS, 0.99), len(sseUS)},
		{"server.publish_delay_us_p99", "us", percentile(publishUS, 0.99), len(publishUS)},
		{"core.ingest_us_per_doc", "us", per(us(ingestNS), ingestDocs), ingestDocs},
		{"core.tick_us_p50", "us", percentile(tickUS, 0.50), len(tickUS)},
		{"core.tick_us_p99", "us", percentile(tickUS, 0.99), len(tickUS)},
		{"core.ticks", "count", float64(ticks), ticks},
		{"core.tick_share", "fraction", float64(tickNS) / max(float64(tickNS+ingestNS), 1), ticks},
		{"core.dispatch_delay_us_p99", "us", percentile(dispatchUS, 0.99), len(dispatchUS)},
		{"core.matched_frac", "fraction", matched, rep.MatchedN},
		{"core.rankings_dropped", "count", float64(rep.RankingsDropped), 1},
		{"pairs.active", "count", float64(rep.ActivePairs), 1},
		{"pairs.evicted_per_kdoc", "1/kdoc", per(1000*float64(rep.Evicted), docs), docs},
		{"tier.demoted_per_kdoc", "1/kdoc", per(1000*float64(rep.Demoted), docs), docs},
		{"tier.promotions_per_tick", "1/tick", per(float64(rep.Promotions), ticks), ticks},
		{"persist.snapshot_ms", "ms", percentile(snapMS, 0.50), len(snapMS)},
		{"persist.wal_bytes_per_doc", "B/doc", per(float64(rep.WALBytes), docs), docs},
		{"persist.recover_s", "s", rep.RecoverSeconds, 1},
		{"runtime.gc_cpu_frac", "fraction", rep.GCCPUFrac, 1},
		{"runtime.heap_peak_mb", "MB", float64(rep.HeapPeakBytes) / (1 << 20), 1},
		{"loadgen.lag_p99_ms", "ms", percentile(lagMS, 0.99), len(lagMS)},
		{"loadgen.backlog_max", "count", float64(backlogMax), len(lagMS)},
		{"trace.overhead_frac", "fraction", 1 - docsPerSec(traced)/docsPerSec(plain), 2},
	}
}

// selfTimes reports, per layer, the spans' total time and their self time:
// duration minus the part their child spans cover. A POST's child is the
// server request with its sequence number; a request's children are the
// ConsumeBatch calls made for it. The other layers have no children.
func selfTimes(spans []trace.Span) []string {
	parent := map[string]string{
		trace.ServerRequest: trace.LoadgenPost,
		trace.CoreIngest:    trace.ServerRequest,
		trace.CoreTick:      trace.ServerRequest,
	}
	type key struct {
		layer string
		seq   int64
	}
	covered := map[key]time.Duration{}
	for i := range spans {
		if p, ok := parent[spans[i].Layer]; ok {
			covered[key{p, spans[i].Seq}] += spans[i].Dur()
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	byLayer := map[string]*agg{}
	for i := range spans {
		s := &spans[i]
		if s.Start == s.End {
			continue // a point, not an interval
		}
		a := byLayer[s.Layer]
		if a == nil {
			a = &agg{}
			byLayer[s.Layer] = a
		}
		a.n++
		a.total += s.Dur()
		a.self += s.Dur() - covered[key{s.Layer, s.Seq}]
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	out := []string{"self time per layer:", fmt.Sprintf("  %-20s %8s %12s %12s", "layer", "spans", "total_ms", "self_ms")}
	for _, l := range layers {
		a := byLayer[l]
		out = append(out, fmt.Sprintf("  %-20s %8d %12.1f %12.1f", l, a.n, ms(int64(a.total)), ms(int64(a.self))))
	}
	return out
}

// table renders metrics with their units and sample counts.
func table(title string, ms []measure) []string {
	out := []string{title + ":", fmt.Sprintf("  %-30s %14s %-9s %8s", "metric", "value", "unit", "samples")}
	for _, m := range ms {
		out = append(out, fmt.Sprintf("  %-30s %14.4f %-9s %8d", m.name, m.value, m.unit, m.samples))
	}
	return out
}
