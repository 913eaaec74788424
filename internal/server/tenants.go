package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/source"
	"enblogue/internal/stream"
)

// This file implements tenant lifecycle over the wire (/v1/tenants) and
// the per-tenant ingest endpoint — the server's write path.

// Opener creates and closes tenant engines on demand; a hub (enblogue.Hub
// or core.Hub) adapts to it trivially. Attach one with AttachOpener to
// enable POST /v1/tenants and DELETE /v1/tenants/{tenant}; without an
// opener the server can only follow engines wired in programmatically.
type Opener interface {
	// Open returns the named tenant's engine, creating it with the hub's
	// defaults on first use (create-or-get).
	Open(name string) (Engine, error)
	// CloseTenant removes the named tenant and closes its engine,
	// reporting whether it existed.
	CloseTenant(name string) bool
}

// AttachOpener connects an engine factory, enabling tenant creation and
// deletion over the wire.
func (s *Server) AttachOpener(o Opener) {
	s.mu.Lock()
	s.opener = o
	s.mu.Unlock()
}

func (s *Server) getOpener() Opener {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opener
}

// TenantView is the stable wire form of one tenant's summary.
//
//enblogue:wire
type TenantView struct {
	Name          string    `json:"name"`
	Created       time.Time `json:"created"`
	DocsProcessed int64     `json:"docsProcessed"`
	Clients       int       `json:"clients"`
	Profiles      int       `json:"profiles"`
}

func (t *tenantState) view() TenantView {
	v := TenantView{
		Name:     t.name,
		Created:  t.created,
		Clients:  t.hub.ClientCount(),
		Profiles: t.registry.Len(),
	}
	t.mu.Lock()
	e := t.engine
	t.mu.Unlock()
	if e != nil {
		v.DocsProcessed = e.DocsProcessed()
	}
	return v
}

// handleTenantsList serves GET /v1/tenants: every tenant's summary, sorted
// by name.
func (s *Server) handleTenantsList(w http.ResponseWriter, r *http.Request) {
	names := s.Tenants()
	out := make([]TenantView, 0, len(names))
	for _, name := range names {
		if t := s.tenant(name); t != nil {
			out = append(out, t.view())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTenantGet serves GET /v1/tenants/{tenant}: one tenant's summary.
func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.view())
}

// tenantRequest is the POST /v1/tenants payload.
type tenantRequest struct {
	Name string `json:"name"`
}

// handleTenantCreate serves POST /v1/tenants: create-or-get a tenant. A
// new tenant's engine comes from the attached Opener with the hub's
// defaults and is immediately followed, so its stream, rankings, stats,
// and ingest endpoints are live on return. 201 on creation, 200 when the
// tenant already existed.
//
// The whole check/open/follow/respond sequence holds the lifecycle lock:
// a concurrent DELETE may otherwise land between Open and FollowTenant,
// leaving the server following an engine the opener already closed — or
// between FollowTenant and the response, making the final view a nil
// dereference.
func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var req tenantRequest
	// Names are at most 64 bytes; a tiny body cap stops a client from
	// streaming gigabytes into the decoder before validation rejects it.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		http.Error(w, "bad tenant JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := core.ValidateTenantName(req.Name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	if t := s.tenant(req.Name); t != nil {
		writeJSON(w, http.StatusOK, t.view())
		return
	}
	o := s.getOpener()
	if o == nil {
		http.Error(w, "no engine opener attached; tenants can only be created programmatically",
			http.StatusServiceUnavailable)
		return
	}
	e, err := o.Open(req.Name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if err := s.FollowTenant(req.Name, e); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusCreated, s.tenant(req.Name).view())
}

// handleTenantDelete serves DELETE /v1/tenants/{tenant}: the tenant's
// engine closes (subscription channels end), its SSE streams terminate,
// and its name becomes available again. The default tenant is not
// deletable — the tenant-less /v1 aliases depend on it.
func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if name == DefaultTenant {
		http.Error(w, `the "default" tenant cannot be deleted`, http.StatusBadRequest)
		return
	}
	s.lifecycleMu.Lock()
	existed := s.removeTenant(name)
	if o := s.getOpener(); o != nil {
		existed = o.CloseTenant(name) || existed
	}
	s.lifecycleMu.Unlock()
	if !existed {
		http.Error(w, fmt.Sprintf("unknown tenant %q", name), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// IngestView is the wire form of a POST items response.
//
//enblogue:wire
type IngestView struct {
	// Consumed is the number of documents fed to the engine from this
	// request, Skipped the number of malformed JSONL lines dropped.
	Consumed int `json:"consumed"`
	Skipped  int `json:"skipped"`
	// DocsProcessed is the tenant engine's lifetime document count after
	// this batch.
	DocsProcessed int64 `json:"docsProcessed"`
}

// maxIngestBytes bounds one ingest request body (64 MiB) so a runaway
// client cannot balloon the server; larger datasets stream in batches.
const maxIngestBytes = 64 << 20

// maxIngestTagsPerDoc drops documents with absurd tag sets (the engine's
// per-document pair work is quadratic in tags, and every distinct tag
// permanently occupies a slot in the process-wide intern table). Dropped
// documents are counted as skipped.
const maxIngestTagsPerDoc = 256

// maxPredicateTags bounds each stream predicate tag list (?tags=,
// ?allTags=). Compiling a predicate dedups its tags in quadratic time and
// indexes it under the broker lock, so an unbounded list lets one request
// stall every tick's dispatch; longer lists are rejected with a 400.
const maxPredicateTags = 256

// handleItemsIngest serves POST /v1/tenants/{tenant}/items: the body is
// JSONL, one document per line in the cmd/datagen wire format ({"time",
// "id", "tags", "entities"?, "text"?, "source"?}). The batch is sorted by
// timestamp and fed to the tenant's engine in order — evaluation ticks
// fire as event time passes tick boundaries, exactly as for any other
// producer. Malformed lines and over-tagged documents are skipped and
// counted, not fatal.
//
// Ingest is a trusted write path: distinct tags are interned process-wide
// and never freed (see internal/intern), so callers exposing this
// endpoint to untrusted clients should normalise or drop one-off tags
// upstream (or front it with auth), exactly as for any other producer.
// The per-request and per-document caps bound amplification, not
// cumulative vocabulary growth.
func (s *Server) handleItemsIngest(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOr404(w, r)
	if t == nil {
		return
	}
	t.mu.Lock()
	e := t.engine
	t.mu.Unlock()
	if e == nil {
		http.Error(w, "tenant has no engine attached; ingest unavailable",
			http.StatusServiceUnavailable)
		return
	}
	docs, skipped, err := source.ReadJSONL(http.MaxBytesReader(w, r.Body, maxIngestBytes), false)
	if err != nil {
		// Over-limit is a client-recoverable condition (split the batch);
		// distinguish it from malformed input.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes; send smaller batches", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading items: "+err.Error(), http.StatusBadRequest)
		return
	}
	kept := docs[:0]
	for i := range docs {
		if len(docs[i].Tags)+len(docs[i].Entities) > maxIngestTagsPerDoc {
			skipped++
			continue
		}
		kept = append(kept, docs[i])
	}
	source.SortDocs(kept)
	// One batched consume for the whole request: the engine pays its
	// bookkeeping lock once per request instead of once per line, with
	// rankings bit-identical to the per-document loop this replaces.
	items := make([]*stream.Item, len(kept))
	for i := range kept {
		items[i] = kept[i].Item()
	}
	e.ConsumeBatch(items)
	writeJSON(w, http.StatusOK, IngestView{
		Consumed:      len(kept),
		Skipped:       skipped,
		DocsProcessed: e.DocsProcessed(),
	})
}
