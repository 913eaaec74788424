// Command sut is the benchmark's system under test: the enblogue hub and
// /v1 server wired as cmd/enblogue-server wires them (a followed default
// tenant, a hub opener, and the workload tenant bootstrapped beside it
// with its history ring), serving on a loopback port. It prints
// "READY <addr>" once it serves.
//
// Unlike the demo it replays nothing and runs no wall-clock watchdog
// ticker: the load generator is the only producer, so every tick is fired
// by event time and the run stays deterministic. The idle default tenant
// gets no history ring, which would need internal/history; it never ticks.
//
// With -trace it wraps the layers it calls into — the HTTP handler, the
// engine behind FollowTenant, the SSE response writer — records spans at
// their boundaries in memory, and serves them at GET /bench/report.
//
// Usage:
//
//	sut -workload archive-ticks -next-tick 0 [-trace] [-data-dir dir -predicates file]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"enblogue"
	"enblogue/internal/server"
	"enblogue/loadbench/trace"
	"enblogue/loadbench/workload"
)

// historyTicks is cmd/enblogue-server's default -history, the history
// ring length of the workload tenant.
const historyTicks = 10000

// hubOpener adapts the public hub to the server's tenant engine factory,
// as cmd/enblogue-server does.
type hubOpener struct{ hub *enblogue.Hub }

func (o hubOpener) Open(name string) (server.Engine, error) { return o.hub.Open(name) }
func (o hubOpener) CloseTenant(name string) bool            { return o.hub.CloseTenant(name) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "sut: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	dataDir := flag.String("data-dir", "", "durability root (durable workloads)")
	predFile := flag.String("predicates", "", "standing predicates file (durable workloads)")
	nextTick := flag.String("next-tick", "0", "the tenant's next tick boundary in Unix ns (0: set by the first document)")
	traced := flag.Bool("trace", false, "record spans at layer boundaries")
	flag.Parse()

	spec, err := workload.Lookup(*name)
	if err != nil {
		return err
	}
	next, err := workload.ParseNano(*nextTick)
	if err != nil {
		return fmt.Errorf("-next-tick: %w", err)
	}
	opts := spec.Options()
	if spec.Durable {
		if *dataDir == "" {
			return errors.New("workload " + spec.Name + " needs -data-dir")
		}
		opts = append(opts, enblogue.WithDurability(*dataDir, workload.DurabilityOptions()...))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hub := enblogue.NewHub(enblogue.HubDefaults(opts...))
	def, err := hub.Open(server.DefaultTenant)
	if err != nil {
		return err
	}
	srv := server.New()
	srv.SetTenantHistoryTicks(historyTicks)
	srv.AttachOpener(hubOpener{hub})
	srv.Follow(def)

	opened := time.Now()
	e, err := hub.Open(workload.Tenant)
	if err != nil {
		return err
	}
	h := &harness{
		traced:    *traced,
		engine:    e,
		recoverS:  time.Since(opened).Seconds(),
		startDocs: e.DocsProcessed(),
		startTail: e.TailStats(),
	}
	if spec.Durable {
		h.walDir = filepath.Join(*dataDir, workload.Tenant)
		h.walStart = walSizes(h.walDir)
		h.walMax = walSizes(h.walDir)
	}
	var followed server.Engine = e
	if h.traced {
		te := &tracedEngine{Engine: e, h: h, clock: workload.TickClock{Every: spec.TickEvery}}
		te.clock.SetNext(next)
		followed = te
	}
	if err := srv.FollowTenant(workload.Tenant, followed); err != nil {
		return err
	}

	var wg sync.WaitGroup
	if *predFile != "" {
		preds, err := workload.ReadPredicates(*predFile)
		if err != nil {
			return err
		}
		for _, p := range preds {
			sub := e.Subscribe(ctx, p.Option())
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range sub.Notifications() {
				}
			}()
		}
	}
	if spec.Durable {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.snapshotLoop(ctx, spec.SnapshotEvery)
		}()
	}
	if h.traced {
		sub := e.Subscribe(ctx, enblogue.SubBuffer(1<<14))
		wg.Add(2)
		go func() {
			defer wg.Done()
			h.receive(sub)
		}()
		go func() {
			defer wg.Done()
			h.sampleHeap(ctx)
		}()
	}

	handler := srv.Handler()
	if h.traced {
		handler = h.middleware(handler)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/report", h.serveReport)
	mux.Handle("/", handler)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		srv.Close()
		hub.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx) // the process exits next either way
	}()
	fmt.Printf("READY %s\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-shutdownDone
	wg.Wait()
	return nil
}

// harness owns the system under test's benchmark-only state: the span
// recorder and the counters GET /bench/report returns.
type harness struct {
	traced    bool
	engine    *enblogue.Engine
	rec       trace.Recorder
	recoverS  float64
	startDocs int64
	startTail enblogue.TailStats

	// seq is the sequence number of the ingest request in flight; the
	// generator POSTs sequentially, so one value suffices.
	seq atomic.Int64

	mu         sync.Mutex
	matchedSum float64
	matchedN   int
	heapPeak   uint64
	walDir     string
	walStart   map[string]int64
	walMax     map[string]int64
}

// middleware times ingest requests and wraps SSE streams' writers.
func (h *harness) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/items"):
			seq, err := strconv.ParseInt(r.Header.Get("X-Bench-Seq"), 10, 64)
			if err != nil {
				seq = -1
			}
			h.seq.Store(seq)
			start := trace.Now()
			next.ServeHTTP(w, r)
			h.rec.Add(trace.Span{Layer: trace.ServerRequest, Seq: seq, Start: start, End: trace.Now()})
		case strings.HasSuffix(r.URL.Path, "/stream"):
			next.ServeHTTP(&sseWriter{ResponseWriter: w, rec: &h.rec}, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// sseWriter times each SSE frame from its Write to the Flush after it.
type sseWriter struct {
	http.ResponseWriter
	rec   *trace.Recorder
	start int64
	at    int64
}

func (w *sseWriter) Write(p []byte) (int, error) {
	w.start, w.at = trace.Now(), trace.FrameAt(p)
	return w.ResponseWriter.Write(p)
}

func (w *sseWriter) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	if w.start != 0 {
		w.rec.Add(trace.Span{Layer: trace.ServerSSEWrite, Seq: -1, At: w.at, Start: w.start, End: trace.Now()})
		w.start = 0
	}
}

// tracedEngine is the engine the traced server follows. It splits every
// ConsumeBatch at event-time tick boundaries, so the one-document call
// carrying the first document past a boundary is the tick span and the
// calls around it are ingest spans. ConsumeBatch of consecutive runs equals
// ConsumeBatch of the whole batch, so rankings are unchanged.
type tracedEngine struct {
	*enblogue.Engine
	h     *harness
	mu    sync.Mutex
	clock workload.TickClock
	fired []time.Time
}

func (t *tracedEngine) ConsumeBatch(items []*enblogue.Item) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.h.seq.Load()
	from := 0
	for i, it := range items {
		if !t.clock.Fires(it.Time) {
			t.clock.Advance(it.Time, nil)
			continue
		}
		t.call(trace.CoreIngest, seq, items[from:i])
		t.fired = t.clock.Advance(it.Time, t.fired[:0])
		t.call(trace.CoreTick, seq, items[i:i+1])
		from = i + 1
	}
	t.call(trace.CoreIngest, seq, items[from:])
}

func (t *tracedEngine) call(layer string, seq int64, items []*enblogue.Item) {
	if len(items) == 0 {
		return
	}
	sp := trace.Span{Layer: layer, Seq: seq, Docs: len(items), Start: trace.Now()}
	t.Engine.ConsumeBatch(items)
	sp.End = trace.Now()
	if layer == trace.CoreTick {
		sp.At, sp.Ticks = t.fired[len(t.fired)-1].UnixNano(), len(t.fired)
	}
	t.h.rec.Add(sp)
}

// receive is the harness subscription: it stamps the broker's delivery
// of every tick and samples the subscription index's match ratio.
func (h *harness) receive(sub *enblogue.Subscription) {
	for n := range sub.Notifications() {
		now := trace.Now()
		h.rec.Add(trace.Span{Layer: trace.HarnessReceive, Seq: -1, At: n.At().UnixNano(), Start: now, End: now})
		if subs := h.engine.Subscribers(); subs > 0 {
			h.mu.Lock()
			h.matchedSum += float64(h.engine.MatchedLastTick()) / float64(subs)
			h.matchedN++
			h.mu.Unlock()
		}
	}
}

// sampleHeap tracks the live-object heap's peak.
func (h *harness) sampleHeap(ctx context.Context) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tk := time.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	for {
		metrics.Read(s)
		h.mu.Lock()
		h.heapPeak = max(h.heapPeak, s[0].Value.Uint64())
		h.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
		}
	}
}

// snapshotLoop is the harness snapshot schedule of durable workloads.
func (h *harness) snapshotLoop(ctx context.Context, every time.Duration) {
	tk := time.NewTicker(every)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
		}
		h.noteWAL()
		sp := trace.Span{Layer: trace.PersistSnapshot, Seq: -1, Start: trace.Now()}
		err := h.engine.Snapshot()
		sp.End = trace.Now()
		h.noteWAL()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sut: snapshot: %v\n", err)
			continue
		}
		if h.traced {
			h.rec.Add(sp)
		}
	}
}

// noteWAL records every WAL segment's size. A segment only grows while it
// is live and snapshots rotate it, so sampling before and after each
// snapshot catches every segment's final size before pruning removes it.
func (h *harness) noteWAL() {
	sizes := walSizes(h.walDir)
	h.mu.Lock()
	for f, n := range sizes {
		h.walMax[f] = max(h.walMax[f], n)
	}
	h.mu.Unlock()
}

func walSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, ent := range entries {
		if !strings.HasPrefix(ent.Name(), "wal-") {
			continue
		}
		if info, err := ent.Info(); err == nil {
			out[ent.Name()] = info.Size()
		}
	}
	return out
}

// serveReport returns the spans and counters of the run so far.
func (h *harness) serveReport(w http.ResponseWriter, r *http.Request) {
	e := h.engine
	tail := e.TailStats()
	rep := trace.Report{
		Spans:           h.rec.Spans(),
		RecoverSeconds:  h.recoverS,
		Docs:            e.DocsProcessed() - h.startDocs,
		Evicted:         sum(tail.EvictedByShard) - sum(h.startTail.EvictedByShard),
		Demoted:         sum(tail.DemotedByShard) - sum(h.startTail.DemotedByShard),
		Promotions:      tail.Promotions - h.startTail.Promotions,
		ActivePairs:     e.ActivePairs(),
		RankingsDropped: e.RankingsDropped(),
	}
	if h.walDir != "" {
		h.noteWAL()
	}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if total := s[1].Value.Float64(); total > 0 {
		rep.GCCPUFrac = s[0].Value.Float64() / total
	}
	h.mu.Lock()
	rep.MatchedSum, rep.MatchedN, rep.HeapPeakBytes = h.matchedSum, h.matchedN, h.heapPeak
	for f, n := range h.walMax {
		rep.WALBytes += n - h.walStart[f]
	}
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&rep); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
