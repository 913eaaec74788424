package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/persona"
	"enblogue/internal/stream"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestV1RankingsAndProfileViews(t *testing.T) {
	s := New()
	h := s.Handler()
	s.PublishRanking(sampleRanking())

	w := get(t, h, "/v1/rankings")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/rankings = %d", w.Code)
	}
	var view RankingView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Topics) != 2 || view.Topics[0].Tag1 != "politics" {
		t.Fatalf("broadcast view = %+v", view)
	}

	// Personalized snapshot for a profile registered AFTER the tick.
	if w := postJSON(t, h, "/v1/profiles",
		`{"name":"icelander","keywords":["volcano"],"boost":10}`); w.Code != http.StatusCreated {
		t.Fatalf("POST /v1/profiles = %d: %s", w.Code, w.Body)
	}
	w = get(t, h, "/v1/rankings?profile=icelander")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/rankings?profile = %d", w.Code)
	}
	var pview RankingView
	if err := json.Unmarshal(w.Body.Bytes(), &pview); err != nil {
		t.Fatal(err)
	}
	if len(pview.Topics) != 2 || pview.Topics[0].Tag1 != "iceland" {
		t.Fatalf("personalized view not re-ranked: %+v", pview.Topics)
	}
	if pview.Topics[0].Score != 0.5*10 {
		t.Errorf("boost not applied: score = %v", pview.Topics[0].Score)
	}

	if w := get(t, h, "/v1/rankings?profile=nobody"); w.Code != http.StatusNotFound {
		t.Errorf("unknown profile = %d, want 404", w.Code)
	}
}

func TestV1ProfileCRUD(t *testing.T) {
	s := New()
	h := s.Handler()

	if w := postJSON(t, h, "/v1/profiles", `{"keywords":["x"]}`); w.Code != http.StatusBadRequest {
		t.Errorf("nameless profile = %d, want 400", w.Code)
	}
	if w := postJSON(t, h, "/v1/profiles", `{"name":"ada","keywords":["db"],"exclusive":true}`); w.Code != http.StatusCreated {
		t.Fatalf("create = %d", w.Code)
	}

	w := get(t, h, "/v1/profiles/ada")
	if w.Code != http.StatusOK {
		t.Fatalf("GET one = %d", w.Code)
	}
	var p ProfileView
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "ada" || !p.Exclusive || len(p.Keywords) != 1 {
		t.Errorf("profile = %+v", p)
	}

	w = get(t, h, "/v1/profiles")
	var list []ProfileView
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "ada" {
		t.Errorf("list = %+v", list)
	}

	req := httptest.NewRequest(http.MethodDelete, "/v1/profiles/ada", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	if w := get(t, h, "/v1/profiles/ada"); w.Code != http.StatusNotFound {
		t.Errorf("GET after delete = %d, want 404", w.Code)
	}
	req = httptest.NewRequest(http.MethodDelete, "/v1/profiles/ada", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("second DELETE = %d, want 404", rec.Code)
	}
}

// The pre-/v1 routes are gone: each answers 404 whatever the method, and
// the tenant-less /v1 aliases that replace them answer without a
// Deprecation header.
func TestDeprecatedAliasesRemoved(t *testing.T) {
	s := New()
	h := s.Handler()
	s.PublishRanking(sampleRanking())

	for _, path := range []string{
		"/events", "/ranking", "/profile", "/profiles", "/history", "/trajectory", "/stats",
	} {
		if w := get(t, h, path); w.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, w.Code)
		}
		if w := postJSON(t, h, path, `{"name":"bob"}`); w.Code != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, w.Code)
		}
	}
	if s.Registry().Len() != 0 {
		t.Errorf("a removed route registered a profile")
	}
	for _, path := range []string{
		"/v1/rankings", "/v1/rankings/history", "/v1/profiles", "/v1/stats",
	} {
		w := get(t, h, path)
		// Without an attached history the history route answers 404 by
		// design (TestHistoryNotEnabled); every other alias answers 200.
		if path != "/v1/rankings/history" && w.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, w.Code)
		}
		if w.Header().Get("Deprecation") != "" {
			t.Errorf("%s carries a Deprecation header", path)
		}
	}
	if w := postJSON(t, h, "/v1/profiles", `{"name":"bob"}`); w.Code != http.StatusCreated {
		t.Errorf("POST /v1/profiles = %d, want 201", w.Code)
	}
}

// serverStream feeds a real engine; Follow must publish every tick to the
// server, and per-profile SSE streams must carry re-ranked views.
func TestV1FollowEngineAndProfileStream(t *testing.T) {
	e := core.New(core.Config{
		WindowBuckets:    12,
		WindowResolution: time.Hour,
		SeedCount:        10,
		SeedWarmupDocs:   10,
		MinCooccurrence:  2,
		TopK:             5,
	})
	s := New()
	defer s.Close()
	s.Follow(e)
	h := s.Handler()

	if w := postJSON(t, h, "/v1/profiles", `{"name":"pol","keywords":["scandal"],"boost":7}`); w.Code != http.StatusCreated {
		t.Fatalf("create profile = %d", w.Code)
	}

	// Per-profile SSE stream: run the handler against a live request.
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stream?profile=pol")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}

	id := 0
	feed := func(hr, mi int, tags ...string) {
		id++
		e.Consume(&stream.Item{
			Time:  t0.Add(time.Duration(hr)*time.Hour + time.Duration(mi)*time.Minute),
			DocID: fmt.Sprintf("d-%04d", id),
			Tags:  tags,
		})
	}
	for hr := 0; hr < 6; hr++ {
		for mi := 0; mi < 60; mi += 5 {
			feed(hr, mi, "news", "politics")
		}
	}
	for mi := 0; mi < 60; mi += 6 {
		feed(4, mi, "politics", "scandal")
	}
	e.Flush()

	// The Follow feed is asynchronous; wait for the server to publish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := get(t, h, "/v1/rankings")
		var view RankingView
		_ = json.Unmarshal(w.Body.Bytes(), &view)
		if !view.At.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Follow never published a ranking")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Read one SSE frame off the profile stream.
	sc := bufio.NewScanner(resp.Body)
	frameCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") {
				frameCh <- strings.TrimPrefix(line, "data: ")
				return
			}
		}
	}()
	select {
	case frame := <-frameCh:
		var view RankingView
		if err := json.Unmarshal([]byte(frame), &view); err != nil {
			t.Fatalf("bad SSE frame: %v", err)
		}
		// The profile boosts "scandal"; if topics exist, a matching topic
		// must lead (boost 7 dwarfs raw scores here).
		if len(view.Topics) > 0 {
			lead := view.Topics[0]
			if lead.Tag1 != "scandal" && lead.Tag2 != "scandal" {
				t.Errorf("profile stream not re-ranked, lead topic %s+%s", lead.Tag1, lead.Tag2)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE frame on profile stream")
	}

	// Stats must reflect the engine and its subscriptions.
	w := get(t, h, "/v1/stats")
	var stats StatsView
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.DocsProcessed == 0 || stats.Subscriptions == 0 {
		t.Errorf("stats = %+v, want docs and subscriptions > 0", stats)
	}
}

func TestV1StreamUnknownProfileAndNoEngine(t *testing.T) {
	s := New()
	h := s.Handler()
	if w := get(t, h, "/v1/stream?profile=ghost"); w.Code != http.StatusNotFound {
		t.Errorf("unknown profile stream = %d, want 404", w.Code)
	}
	s.Registry().Set(&persona.Profile{Name: "solo"})
	if w := get(t, h, "/v1/stream?profile=solo"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("no-engine profile stream = %d, want 503", w.Code)
	}
}

// A predicate tag list longer than maxPredicateTags is rejected with a 400
// before any subscription is compiled; a list at the limit opens a stream.
func TestV1StreamRejectsOversizedTagList(t *testing.T) {
	e := core.New(core.Config{})
	defer e.Close()
	s := New()
	defer s.Close()
	s.AttachEngine(e)
	h := s.Handler()
	tagList := func(n int) string {
		tags := make([]string, n)
		for i := range tags {
			tags[i] = fmt.Sprintf("t%04d", i)
		}
		return strings.Join(tags, ",")
	}
	// stream serves one request whose context ends after a short while, so
	// an accepted stream returns instead of parking.
	stream := func(query string) int {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stream?"+query, nil).WithContext(ctx))
		return w.Code
	}
	for _, param := range []string{"tags", "allTags"} {
		if code := stream(param + "=" + tagList(1000)); code != http.StatusBadRequest {
			t.Errorf("%s with 1000 tags = %d, want 400", param, code)
		}
		if code := stream(param + "=" + tagList(maxPredicateTags)); code != http.StatusOK {
			t.Errorf("%s with %d tags = %d, want 200", param, maxPredicateTags, code)
		}
	}
}

// FuzzPredicateOpts drives arbitrary stream query strings through predicate
// parsing and subscription compilation: nothing may panic, and an accepted
// query yields at most one option per predicate parameter with every tag
// list within maxPredicateTags.
func FuzzPredicateOpts(f *testing.F) {
	for _, seed := range []string{
		"",
		"tags=a,b&minScore=0.5",
		"allTags=a, b ,,c&emergenceOnly=true",
		"minScore=banana",
		"emergenceOnly=maybe",
		"tags=" + strings.Repeat("x,", 300),
		"tags=%zz&allTags=;",
	} {
		f.Add(seed)
	}
	e := core.New(core.Config{})
	defer e.Close()
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as http.Request.URL.Query does
		opts, err := predicateOpts(q)
		if err != nil {
			if opts != nil {
				t.Errorf("rejected query %q returned options", raw)
			}
			return
		}
		if len(opts) > 4 {
			t.Errorf("query %q gave %d options, want at most 4", raw, len(opts))
		}
		for _, param := range []string{"tags", "allTags"} {
			if n := len(splitTagList(q.Get(param))); n > maxPredicateTags {
				t.Errorf("query %q accepted %d %s", raw, n, param)
			}
		}
		e.Subscribe(context.Background(), opts...).Close()
	})
}
