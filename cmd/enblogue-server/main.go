// Command enblogue-server runs the live demo: a simulated Web 2.0 stream
// is replayed in time lapse through the public engine while rankings are
// pushed to browsers over Server-Sent Events — the paper's APE-based
// front-end on stdlib HTTP, behind the versioned /v1 wire contract.
//
// The process is a multi-tenant hub: the replay feeds the "default"
// tenant, and any number of additional named topic streams run beside it —
// bootstrapped with -tenants or created over the wire — each with its own
// rankings, SSE stream, profiles, history, and a JSONL ingest endpoint.
//
// Usage:
//
//	enblogue-server -addr :8080 -speedup 600 -tenants eu,us
//
// then open http://localhost:8080/ (the page updates without polling).
// Tenant-scoped usage:
//
//	curl -X POST localhost:8080/v1/tenants -d '{"name":"mine"}'
//	curl -X POST localhost:8080/v1/tenants/mine/items --data-binary @docs.jsonl
//	curl -N localhost:8080/v1/tenants/mine/stream
//
// Register a personalization profile and stream its private view with:
//
//	curl -X POST localhost:8080/v1/profiles -d '{"name":"me","keywords":["volcano"]}'
//	curl -N localhost:8080/v1/stream?profile=me
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests drain, the
// replay stops, every tenant engine closes, and every subscription channel
// ends.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enblogue"
	"enblogue/internal/history"
	"enblogue/internal/server"
	"enblogue/internal/source"
)

// hubOpener adapts the public hub to the server's tenant engine factory,
// so POST /v1/tenants and DELETE /v1/tenants/{name} work over the wire.
type hubOpener struct{ hub *enblogue.Hub }

func (o hubOpener) Open(name string) (server.Engine, error) { return o.hub.Open(name) }
func (o hubOpener) CloseTenant(name string) bool            { return o.hub.CloseTenant(name) }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	speedup := flag.Float64("speedup", 600, "time-lapse factor (event time / wall time)")
	historyTicks := flag.Int("history", 10000, "ranking history length in ticks (default tenant; others get the same)")
	tenants := flag.String("tenants", "", "comma-separated tenant names to bootstrap beside the default replay tenant")
	dataDir := flag.String("data-dir", "", "durability root: per-tenant snapshots + WAL live under it; empty disables persistence")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The demo stream merges the tweet and feed wrappers over the same
	// scripted scenario; data generation is the only internal dependency
	// left here — the hub, engines, and their wiring are all public API.
	span := 48 * time.Hour
	docs := source.Merge(
		source.GenerateTweets(source.TweetConfig{
			Seed: 7, Span: span, TweetsPerMinute: 20,
			Happenings: source.SIGMODAthensScenario(span),
		}),
		source.GenerateFeed(source.FeedConfig{
			Seed: 8, Span: span, Happenings: source.SIGMODAthensScenario(span),
		}),
	)
	items := make(enblogue.Items, len(docs))
	for i := range docs {
		items[i] = docs[i].Item()
	}

	// One hub hosts every tenant. The flags become hub-wide defaults, so
	// tenants created over the wire inherit them too.
	defaults := []enblogue.Option{
		enblogue.WithWindow(24, time.Hour),
		enblogue.WithTickEvery(time.Hour),
		enblogue.WithSeedCount(30),
		enblogue.WithMinCooccurrence(3),
		enblogue.WithTopK(10),
		enblogue.WithUpOnly(),
	}
	if *dataDir != "" {
		defaults = append(defaults, enblogue.WithDurability(*dataDir))
	}
	hub := enblogue.NewHub(enblogue.HubDefaults(defaults...))

	engine, err := hub.Open(server.DefaultTenant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "enblogue-server: %v\n", err)
		os.Exit(1)
	}

	srv := server.New()
	srv.SetTenantHistoryTicks(*historyTicks)
	srv.AttachHistory(history.New(*historyTicks))
	srv.AttachOpener(hubOpener{hub})
	srv.Follow(engine) // broker subscription feeds SSE, history, personas

	// Bootstrap the extra tenants: empty engines, live immediately, fed
	// over POST /v1/tenants/{name}/items.
	var extra []string
	for _, name := range strings.Split(*tenants, ",") {
		name = strings.TrimSpace(name)
		if name == "" || name == server.DefaultTenant {
			continue
		}
		e, err := hub.Open(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "enblogue-server: tenant %q: %v\n", name, err)
			os.Exit(1)
		}
		if err := srv.FollowTenant(name, e); err != nil {
			fmt.Fprintf(os.Stderr, "enblogue-server: tenant %q: %v\n", name, err)
			os.Exit(1)
		}
		extra = append(extra, name)
	}

	// With durability on, tenants created over the wire in a previous run
	// left per-tenant subdirectories behind; reopen them so their recovered
	// rankings are live immediately instead of waiting for the next POST.
	if *dataDir != "" {
		entries, err := os.ReadDir(*dataDir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "enblogue-server: data dir: %v\n", err)
			os.Exit(1)
		}
		for _, ent := range entries {
			name := ent.Name()
			if !ent.IsDir() || name == server.DefaultTenant {
				continue
			}
			e, err := hub.Open(name) // validates the name; rejects strays
			if err != nil {
				fmt.Fprintf(os.Stderr, "enblogue-server: skipping data dir entry %q: %v\n", name, err)
				continue
			}
			if err := srv.FollowTenant(name, e); err != nil {
				// Already followed via -tenants: fine, it is the same engine.
				continue
			}
			extra = append(extra, name)
		}
	}

	go func() {
		if err := engine.Run(ctx, enblogue.Replay(items, *speedup)); err != nil {
			if !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "enblogue-server: replay: %v\n", err)
			}
			return
		}
		fmt.Println("enblogue-server: replay finished; final ranking stays live")
	}()

	// Wall-clock watchdog ticker: the engine is safe for concurrent use, so
	// this goroutine calls Tick directly against the ingest goroutine — no
	// external lock around the engine. When event-driven ticks go quiet
	// (stream stall or replay end) it fires one catch-up evaluation at the
	// stream clock, so clients see the final stretch of events scored; it
	// does not fabricate event time beyond what the stream delivered.
	go func() {
		tickWall := time.Duration(float64(time.Hour) / *speedup)
		if tickWall < time.Second {
			tickWall = time.Second
		}
		ticker := time.NewTicker(tickWall)
		defer ticker.Stop()
		lastAt := time.Time{}
		lastWall := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			cur := engine.CurrentRanking().At
			if !cur.Equal(lastAt) {
				lastAt, lastWall = cur, time.Now()
				continue // event-driven ticks are keeping up
			}
			if time.Since(lastWall) < 3*tickWall {
				continue
			}
			if at := engine.LastEventTime(); !at.IsZero() && at.After(lastAt) {
				engine.Tick(at)
			}
		}
	}()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Println("\nenblogue-server: shutting down")
		// Close the server context and the hub first: per-profile SSE
		// handlers end when their subscription channels close, broadcast
		// SSE handlers end on the tenant contexts — so Shutdown can drain
		// the remaining requests instead of timing out on parked streams.
		srv.Close()
		hub.Close() // closes every tenant engine, default included
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx) // drain in-flight requests
	}()

	fmt.Printf("enblogue-server: %d docs looping at %.0fx; tenants %v; listening on %s\n",
		len(items), *speedup, append([]string{server.DefaultTenant}, extra...), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "enblogue-server: %v\n", err)
		os.Exit(1)
	}
	// ListenAndServe returns the instant Shutdown closes the listener;
	// wait for the drain to actually finish before exiting.
	<-shutdownDone
}
