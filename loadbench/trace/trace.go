// Package trace holds the span records of a traced benchmark run and the
// report the system under test hands the load generator when a run ends.
// Spans are kept in memory while the run lasts; times are wall-clock Unix
// nanoseconds, so spans from the two processes on one machine join by POST
// sequence number and tick time.
package trace

import (
	"bytes"
	"sync"
	"time"
)

// Layer names, after the modules they time.
const (
	// LoadgenPost is one POST from the generator: send to acknowledgement.
	LoadgenPost = "loadgen.post"
	// LoadgenFrame is the generator reading one SSE tick frame (a point).
	LoadgenFrame = "loadgen.frame"
	// ServerRequest is the ingest request inside the server's handler.
	ServerRequest = "server.request"
	// CoreIngest is a ConsumeBatch call that fires no tick.
	CoreIngest = "core.ingest"
	// CoreTick is the one-document ConsumeBatch call that carries the
	// first document past a tick boundary, so it runs the tick.
	CoreTick = "core.tick"
	// ServerSSEWrite is one SSE frame written and flushed to the client.
	ServerSSEWrite = "server.sse_write"
	// HarnessReceive is the harness subscription receiving a tick (a point).
	HarnessReceive = "harness.receive"
	// PersistSnapshot is one harness-scheduled Engine.Snapshot call.
	PersistSnapshot = "persist.snapshot"
)

// Span is one timed interval (or point, when Start == End) at a layer
// boundary.
type Span struct {
	Layer string `json:"layer"`
	// Seq is the POST sequence number the span belongs to (-1: none).
	Seq int64 `json:"seq"`
	// At is the tick time the span belongs to (Unix ns; 0: none).
	At    int64 `json:"at,omitempty"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Docs counts documents; Ticks the ticks a core.tick call fired.
	Docs  int `json:"docs,omitempty"`
	Ticks int `json:"ticks,omitempty"`
	// Bytes is the WAL growth a snapshot span closed.
	Bytes int64 `json:"bytes,omitempty"`
}

// Dur returns the span's duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans in memory. The zero value is ready to use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records one span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Now returns the wall clock in Unix nanoseconds.
func Now() int64 { return time.Now().UnixNano() }

// Report is what the system under test returns from GET /bench/report.
type Report struct {
	Spans []Span `json:"spans"`
	// RecoverSeconds is the time the tenant's Hub.Open took, recovery
	// included.
	RecoverSeconds float64 `json:"recoverSeconds"`
	// Docs and the counters below are deltas since the tenant opened,
	// unless noted.
	Docs       int64 `json:"docs"`
	Evicted    int64 `json:"evicted"`
	Demoted    int64 `json:"demoted"`
	Promotions int64 `json:"promotions"`
	// WALBytes is the write-ahead log's growth.
	WALBytes int64 `json:"walBytes"`
	// ActivePairs is the tracked pair count at the end.
	ActivePairs     int   `json:"activePairs"`
	RankingsDropped int64 `json:"rankingsDropped"`
	// MatchedSum / MatchedN is the mean of MatchedLastTick ÷ Subscribers
	// sampled at every tick the harness subscription received.
	MatchedSum float64 `json:"matchedSum"`
	MatchedN   int     `json:"matchedN"`
	// GCCPUFrac is GC CPU time over all CPU time since process start.
	GCCPUFrac float64 `json:"gcCpuFrac"`
	// HeapPeakBytes is the largest sampled live-object heap.
	HeapPeakBytes uint64 `json:"heapPeakBytes"`
}

// FrameAt extracts the tick time (Unix ns) from an SSE RankingView frame,
// 0 if it has none.
func FrameAt(p []byte) int64 {
	const key = `"at":"`
	i := bytes.Index(p, []byte(key))
	if i < 0 {
		return 0
	}
	p = p[i+len(key):]
	j := bytes.IndexByte(p, '"')
	if j < 0 {
		return 0
	}
	t, err := time.Parse(time.RFC3339Nano, string(p[:j]))
	if err != nil {
		return 0
	}
	return t.UnixNano()
}
