// Package workload defines the benchmark's workloads: the document stream
// each one sends, the engine options the system under test and the
// reference replay share, the data directory bounded-durable recovers at
// start, and the standing predicates it registers.
//
// Everything here is a pure function of the workload name and the seed, so
// the load generator and the reference replay agree on every byte sent.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"enblogue"
	"enblogue/internal/source"
)

// Tenant is the tenant every workload posts to and streams from.
const Tenant = "bench"

// Spec is one workload.
type Spec struct {
	Name string
	// Rate is the open-loop rate in documents per second: about half the
	// saturation throughput a shared 2-CPU machine gives in its slower
	// stretches, about 40% of what it gives at its best.
	Rate float64
	// PostDocs is the fixed number of documents in every POST.
	PostDocs int
	// TickEvery is the engine's evaluation period in event time.
	TickEvery time.Duration
	// Durable turns on the WAL, harness-scheduled snapshots, start-up
	// recovery of a prepared data directory, and standing predicates.
	Durable bool
	// Predicates is the number of standing predicate subscriptions the
	// system under test registers and drains.
	Predicates int
	// SnapshotEvery is the wall-clock period of harness snapshots.
	SnapshotEvery time.Duration

	options  func() []enblogue.Option
	generate func(seed int64) []source.Document
}

// Options returns the engine options of the workload's tenant. The system
// under test passes them as hub defaults and the reference to New, so both
// build identical engines; everything not set here is a library default,
// shard count included.
func (s *Spec) Options() []enblogue.Option { return s.options() }

// DurabilityOptions returns the persistence tuning of durable workloads:
// no background snapshot ticker, since the harness schedules snapshots.
func DurabilityOptions() []enblogue.DurabilityOption {
	return []enblogue.DurabilityOption{enblogue.SnapshotEvery(-1)}
}

var archiveStart = time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)

// archive is the news archive of the re-anchor sizing facts: 1500 docs/day
// over ten days, no injected events.
func archive(seed int64) []source.Document {
	return source.GenerateArchive(source.ArchiveConfig{
		Seed: seed, Start: archiveStart, Days: 10, DocsPerDay: 1500,
	})
}

// tweets is the SIGMOD/Athens tweet stream of the live demo.
func tweets(seed int64) []source.Document {
	span := 48 * time.Hour
	return source.GenerateTweets(source.TweetConfig{
		Seed: seed, Span: span, TweetsPerMinute: 20,
		Happenings: source.SIGMODAthensScenario(span),
	})
}

// Specs lists the workloads in the order BENCHMARK.json names them.
var Specs = []*Spec{
	{
		Name:      "tweets-ingest",
		Rate:      35000,
		PostDocs:  200,
		TickEvery: 15 * time.Minute,
		// The demo server's default tenant options, with a tick cadence
		// of about 300 documents.
		options: func() []enblogue.Option {
			return []enblogue.Option{
				enblogue.WithWindow(24, time.Hour),
				enblogue.WithTickEvery(15 * time.Minute),
				enblogue.WithSeedCount(30),
				enblogue.WithMinCooccurrence(3),
				enblogue.WithTopK(10),
				enblogue.WithUpOnly(),
			}
		},
		generate: tweets,
	},
	{
		Name:      "archive-ticks",
		Rate:      14000,
		PostDocs:  60,
		TickEvery: time.Hour,
		options: func() []enblogue.Option {
			return []enblogue.Option{enblogue.WithSeedCount(200)}
		},
		generate: archive,
	},
	{
		Name:          "bounded-durable",
		Rate:          3000,
		PostDocs:      20,
		TickEvery:     time.Hour,
		Durable:       true,
		Predicates:    300,
		SnapshotEvery: 500 * time.Millisecond,
		// MaxPairs is about a tenth of the ~4.3k pairs the uncapped
		// archive tracks.
		options: func() []enblogue.Option {
			return []enblogue.Option{
				enblogue.WithSeedCount(200),
				enblogue.WithMaxPairs(430),
				enblogue.WithTailSketch(0.01, 0.01, 1024),
			}
		},
		generate: archive,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (*Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Stream is a workload's endless document stream: the generated pass
// repeated, each repetition re-timestamped one span later so ticks keep
// firing however long a run lasts. Document k is base document k mod n of
// pass k / n. Documents [0, Offset) are the prepared history a durable
// workload recovers; the generator sends from Offset on.
type Stream struct {
	Spec   *Spec
	Offset int

	times []time.Time
	rest  [][]byte // each document's JSON after its time field
	span  time.Duration
}

// docTail is a source.Document without its time field.
type docTail struct {
	ID       string   `json:"id"`
	Tags     []string `json:"tags"`
	Entities []string `json:"entities,omitempty"`
	Text     string   `json:"text,omitempty"`
	Source   string   `json:"source,omitempty"`
}

// NewStream generates the workload's pass for seed.
func NewStream(spec *Spec, seed int64) (*Stream, error) {
	docs := spec.generate(seed)
	if len(docs) == 0 {
		return nil, fmt.Errorf("workload %s: empty stream", spec.Name)
	}
	s := &Stream{
		Spec:  spec,
		times: make([]time.Time, len(docs)),
		rest:  make([][]byte, len(docs)),
		// One hour between passes, as BenchmarkThroughputSharded does.
		span: docs[len(docs)-1].Time.Sub(docs[0].Time) + time.Hour,
	}
	for i := range docs {
		d := &docs[i]
		b, err := json.Marshal(docTail{d.ID, d.Tags, d.Entities, d.Text, d.Source})
		if err != nil {
			return nil, fmt.Errorf("workload %s: encoding doc %d: %w", spec.Name, i, err)
		}
		s.times[i] = d.Time.UTC()
		s.rest[i] = b[1:] // drop the opening brace; AppendDoc writes its own
	}
	if spec.Durable {
		s.Offset = len(docs)
	}
	return s, nil
}

// Time returns document k's event time.
func (s *Stream) Time(k int) time.Time {
	n := len(s.times)
	return s.times[k%n].Add(time.Duration(k/n) * s.span)
}

// AppendDoc appends document k as one JSONL line.
func (s *Stream) AppendDoc(b []byte, k int) []byte {
	b = append(b, `{"time":"`...)
	b = s.Time(k).AppendFormat(b, time.RFC3339Nano)
	b = append(b, `",`...)
	b = append(b, s.rest[k%len(s.rest)]...)
	return append(b, '\n')
}

// PostFirst returns the stream index of POST j's first document.
func (s *Stream) PostFirst(j int) int { return s.Offset + j*s.Spec.PostDocs }

// AppendPost appends POST j's body: documents PostFirst(j) onwards.
func (s *Stream) AppendPost(b []byte, j int) []byte {
	first := s.PostFirst(j)
	for k := first; k < first+s.Spec.PostDocs; k++ {
		b = s.AppendDoc(b, k)
	}
	return b
}

// PostItems decodes POST j's body exactly as the server's ingest handler
// does, giving the items the system under test consumed for it.
func (s *Stream) PostItems(buf []byte, j int) ([]byte, enblogue.Items, error) {
	buf = s.AppendPost(buf[:0], j)
	items, skipped, err := enblogue.ReadItemsJSONL(bytes.NewReader(buf))
	if err == nil && (skipped != 0 || len(items) != s.Spec.PostDocs) {
		err = fmt.Errorf("post %d decoded to %d items, %d skipped", j, len(items), skipped)
	}
	return buf, items, err
}

// TickClock tracks an engine's next evaluation boundary with exactly the
// engine's rule: the first document schedules a tick one period later,
// every document at or past the boundary fires the ticks it passed, and a
// jump of more than a hundred periods fires one tick and re-anchors.
type TickClock struct {
	Every time.Duration
	next  time.Time
}

// Next returns the next boundary (zero before the first document).
func (c TickClock) Next() time.Time { return c.next }

// SetNext sets the next boundary, as recovery restores it.
func (c *TickClock) SetNext(t time.Time) { c.next = t }

// Fires reports whether a document at t fires at least one tick.
func (c TickClock) Fires(t time.Time) bool {
	return !c.next.IsZero() && !c.next.After(t)
}

// Advance moves the clock past a document at t and appends the tick times
// the document fires to fired.
func (c *TickClock) Advance(t time.Time, fired []time.Time) []time.Time {
	if c.next.IsZero() {
		c.next = t.Add(c.Every)
	}
	if t.Sub(c.next) > 100*c.Every {
		fired = append(fired, c.next)
		c.next = t.Add(c.Every)
	}
	for !c.next.After(t) {
		fired = append(fired, c.next)
		c.next = c.next.Add(c.Every)
	}
	return fired
}

// StartClock returns the tick clock as it stands when the generator
// starts sending: fresh, or past the prepared history.
func (s *Stream) StartClock() TickClock {
	c := TickClock{Every: s.Spec.TickEvery}
	for k := 0; k < s.Offset; k++ {
		c.Advance(s.Time(k), nil)
	}
	return c
}

// Prepare writes the data directory a durable workload recovers at start:
// the hub layout under root holding the tenant's prepared history — a
// snapshot at four fifths of it and the rest in the WAL, so recovery both
// restores and replays. The result is a pure function of the stream.
func (s *Stream) Prepare(root string) error {
	opts := append(s.Spec.Options(), enblogue.WithDurability(root, DurabilityOptions()...))
	hub := enblogue.NewHub(enblogue.HubDefaults(opts...))
	defer hub.Close()
	e, err := hub.Open(Tenant)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	var buf []byte
	snapAt := s.Offset * 4 / 5
	for k := 0; k < s.Offset; {
		end := min(k+s.Spec.PostDocs, s.Offset)
		if k < snapAt && end > snapAt {
			end = snapAt
		}
		buf = buf[:0]
		for i := k; i < end; i++ {
			buf = s.AppendDoc(buf, i)
		}
		items, _, err := enblogue.ReadItemsJSONL(bytes.NewReader(buf))
		if err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		e.ConsumeBatch(items)
		if k = end; k == snapAt {
			if err := e.Snapshot(); err != nil {
				return fmt.Errorf("prepare: %w", err)
			}
		}
	}
	if st, _ := e.DurabilityStats(); st.LastErr != "" {
		return fmt.Errorf("prepare: %s", st.LastErr)
	}
	return nil
}

// Predicate is one standing subscription: any-of or all-of a tag set.
type Predicate struct {
	All  bool
	Tags []string
}

// Option returns the predicate as a subscription option.
func (p Predicate) Option() enblogue.SubOption {
	if p.All {
		return enblogue.WithAllTags(p.Tags...)
	}
	return enblogue.WithTags(p.Tags...)
}

// String renders the predicate as one line of a predicates file.
func (p Predicate) String() string {
	kind := "any"
	if p.All {
		kind = "all"
	}
	return kind + " " + strings.Join(p.Tags, " ")
}

// Predicates draws the workload's standing predicates from the tags of one
// pass, weighted towards the popular ones so a share of them match.
func (s *Stream) Predicates(seed int64) []Predicate {
	if s.Spec.Predicates == 0 {
		return nil
	}
	counts := map[string]int{}
	var d struct {
		Tags []string `json:"tags"`
	}
	for _, r := range s.rest {
		if err := json.Unmarshal(append([]byte{'{'}, r...), &d); err == nil {
			for _, t := range d.Tags {
				counts[t]++
			}
		}
	}
	tags := make([]string, 0, len(counts))
	for t := range counts {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool {
		if counts[tags[i]] != counts[tags[j]] {
			return counts[tags[i]] > counts[tags[j]]
		}
		return tags[i] < tags[j]
	})
	pool := tags[:min(len(tags), 400)]
	rng := rand.New(rand.NewSource(seed))
	pick := func() string { return pool[rng.Intn(1+rng.Intn(len(pool)))] }
	out := make([]Predicate, s.Spec.Predicates)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = Predicate{Tags: []string{pick()}}
		case 1:
			out[i] = Predicate{Tags: []string{pick(), pick()}}
		default:
			out[i] = Predicate{All: true, Tags: []string{pick(), pick()}}
		}
	}
	return out
}

// WritePredicates writes predicates one per line.
func WritePredicates(path string, ps []Predicate) error {
	var b strings.Builder
	for _, p := range ps {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// ReadPredicates reads a file written by WritePredicates.
func ReadPredicates(path string) ([]Predicate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Predicate
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[0] != "any" && f[0] != "all") {
			return nil, fmt.Errorf("%s:%d: bad predicate %q", path, i+1, line)
		}
		out = append(out, Predicate{All: f[0] == "all", Tags: f[1:]})
	}
	return out, nil
}

// FormatNano renders a boundary for a command-line flag.
func FormatNano(t time.Time) string {
	if t.IsZero() {
		return "0"
	}
	return strconv.FormatInt(t.UnixNano(), 10)
}

// ParseNano is FormatNano's inverse.
func ParseNano(s string) (time.Time, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n == 0 {
		return time.Time{}, err
	}
	return time.Unix(0, n).UTC(), nil
}
