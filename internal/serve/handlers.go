package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/pkg/qoe"
)

// routes wires the HTTP API:
//
//	GET  /healthz               liveness (503 while draining)
//	GET  /metrics               metrics registry (JSON, or ?format=prom)
//	GET  /v1/catalog            experiments, scenario library, scales
//	POST /v1/runs               start (or dedup/cache-route) a run; JSON body
//	GET  /v1/runs/{id}          run status
//	GET  /v1/runs/{id}/stream   NDJSON event stream of a run
//	GET  /v1/run                one-shot: admit + stream in a single request
//
// Response bodies reuse the SDK's exported wire types (qoe.Catalog,
// qoe.RunStatus): the server marshals exactly what qoe.Client decodes, so
// the two ends of the API cannot drift apart field by field.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("POST /v1/runs", s.handleStartRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleRunStream)
	mux.HandleFunc("GET /v1/run", s.handleOneShot)
	mux.HandleFunc("GET /v1/shard", s.handleShard)
	if s.cfg.Fabric != nil {
		mux.HandleFunc("GET /v1/fabric/workers", s.handleFabricWorkers)
	}
	return mux
}

// writeJSON emits one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds accompanies 429 responses, mirroring the
	// Retry-After header for clients that only read bodies.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Code marks machine-readable rejections; qoe.Client maps
	// "unsupported_schema" (with the two schema fields) onto its typed
	// SchemaUnsupportedError.
	Code            string `json:"code,omitempty"`
	RequiredSchema  int    `json:"required_schema,omitempty"`
	SupportedSchema int    `json:"supported_schema,omitempty"`
}

// writeAdmitError maps admission failures onto HTTP semantics: a full queue
// is 429 with the configured Retry-After hint (the backpressure contract),
// draining is 503 (stop routing here), anything else is a 400 spec error.
func (s *Server) writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), RetryAfterSeconds: secs})
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

// healthBody is the /healthz response: liveness plus what this daemon is
// running and for how long — enough for a fleet operator to spot a skewed
// or freshly-restarted worker from the health endpoint alone.
type healthBody struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	Revision      string  `json:"revision"`
	GoVersion     string  `json:"go"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	b := telemetry.BuildInfo()
	body := healthBody{
		Status:        "ok",
		Version:       b.Version,
		Revision:      b.Revision,
		GoVersion:     b.GoVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if draining {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleTrace is GET /debug/trace/{id}: the stitched span dump of one trace
// from the in-memory ring. On a coordinator the dump includes merged worker
// spans (tagged with their origin URL); on a worker it holds that worker's
// side of the story — which is exactly what a coordinator's stitch collects.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tr == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "serve: tracing is disabled"})
		return
	}
	id := r.PathValue("id")
	dump, ok := s.tr.Snapshot(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "serve: no trace for " + id})
		return
	}
	dump.SchemaVersion = qoe.SchemaVersion
	writeJSON(w, http.StatusOK, dump)
}

func catalogNetworks(infos []qoe.NetworkInfo) []qoe.CatalogNetwork {
	out := make([]qoe.CatalogNetwork, 0, len(infos))
	for _, n := range infos {
		out = append(out, qoe.CatalogNetwork{
			Name:        n.Name,
			UplinkBps:   n.UplinkBps,
			DownlinkBps: n.DownlinkBps,
			MinRTTMs:    float64(n.MinRTT) / float64(time.Millisecond),
			LossRate:    n.LossRate,
			Description: n.Description,
		})
	}
	return out
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	body := qoe.Catalog{
		SchemaVersion: qoe.SchemaVersion,
		Networks:      catalogNetworks(qoe.Networks()),
		Scenarios:     catalogNetworks(qoe.Scenarios()),
		Scales:        qoe.ScaleNames(),
	}
	for _, e := range qoe.Experiments() {
		body.Experiments = append(body.Experiments, qoe.CatalogEntry{Name: e.Name, Networks: e.Networks, Protocols: e.Protocols, Adaptive: e.Adaptive})
	}
	writeJSON(w, http.StatusOK, body)
}

// runRequest is the POST /v1/runs body. experiments and scenarios are
// synonyms (their union is the selection); scale defaults to quick and seed
// to 1, matching qoebench's defaults.
type runRequest struct {
	Experiments []string `json:"experiments"`
	Scenarios   []string `json:"scenarios"`
	Scale       string   `json:"scale"`
	Seed        *int64   `json:"seed"`
}

// runStatusBody seeds a qoe.RunStatus with the constant envelope fields.
func runStatusBody(id, key string) qoe.RunStatus {
	return qoe.RunStatus{
		SchemaVersion: qoe.SchemaVersion,
		ID:            id,
		Key:           key,
		StreamURL:     "/v1/runs/" + id + "/stream",
	}
}

func (s *Server) handleStartRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("serve: bad request body: %v", err)})
		return
	}
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	spec, err := Canonicalize(req.Experiments, req.Scenarios, req.Scale, seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	adm, err := s.admit(spec, false)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	body := runStatusBody(adm.id, adm.key)
	if adm.cached != nil {
		body.Status, body.Source, body.Bytes = "cached", "cached", len(adm.cached)
		writeJSON(w, http.StatusOK, body)
		return
	}
	// admit attached this request (promoting a deduped ephemeral job to
	// durable); a POST does not stream, so release the subscription as soon
	// as the status snapshot is taken. The job is non-ephemeral now, so
	// releasing can never cancel it.
	defer adm.j.unsubscribe()
	if !adm.created {
		body.Source = "deduped"
	} else {
		body.Source = "accepted"
	}
	state, n, jerr := adm.j.status()
	body.Status, body.Bytes = state.String(), n
	if jerr != nil {
		body.Error = jerr.Error()
	}
	writeJSON(w, http.StatusAccepted, body)
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, cached, key, _, ok := s.lookup(id)
	if !ok {
		// The bytes may be gone (cache eviction, oversized stream, caching
		// disabled) while the completed-run index still knows the outcome.
		if rec, found := s.completedRecord(id); found {
			body := runStatusBody(id, rec.key)
			body.Status, body.Source, body.Bytes = "done", "evicted", rec.bytes
			writeJSON(w, http.StatusOK, body)
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: "serve: unknown run " + id})
		return
	}
	body := runStatusBody(id, key)
	if j == nil {
		body.Status, body.Source, body.Bytes = "cached", "cached", len(cached)
		writeJSON(w, http.StatusOK, body)
		return
	}
	state, n, jerr := j.status()
	body.Status, body.Source, body.Bytes = state.String(), "live", n
	if jerr != nil {
		// A finished job with an error is a tombstone, not an in-flight
		// broadcast; "live" is reserved for runs that are actually running.
		if state == jobDone {
			body.Source = "failed"
		}
		body.Error = jerr.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

// Constant stream-header values, shared across responses so stamping the
// envelope doesn't allocate fresh one-element slices per request. The keys
// are already canonical MIME form, and handlers never mutate the shared
// slices, so direct map assignment is equivalent to Header.Set.
var (
	ndjsonContentType  = []string{"application/x-ndjson; charset=utf-8"}
	schemaVersionValue = []string{strconv.Itoa(qoe.SchemaVersion)}
	sourceValues       = map[string][]string{
		"live":   {"live"},
		"cache":  {"cache"},
		"disk":   {"disk"},
		"failed": {"failed"},
	}
)

// streamHeaders stamps the NDJSON response envelope. source is "live"
// (broadcast from a running job), "cache" (replay from the RAM tier),
// "disk" (replay promoted from the spill store), or "failed" (sealed
// partial bytes of a dead run). The bytes of cache and disk replays are
// identical — the source header exists so tests and operators can see which
// tier answered.
func streamHeaders(w http.ResponseWriter, id, source string) {
	h := w.Header()
	h["Content-Type"] = ndjsonContentType
	h["X-Qoe-Schema-Version"] = schemaVersionValue
	h["X-Qoe-Run-Id"] = []string{id}
	h["X-Qoe-Source"] = sourceValues[source]
}

// replayCached writes one finished stream in a single shot.
func (s *Server) replayCached(w http.ResponseWriter, id, source string, data []byte) {
	streamHeaders(w, id, source)
	n, _ := w.Write(data)
	s.met.bytesStreamed.Add(int64(n))
}

// streamJob follows the job's broadcast buffer until the run finishes or
// the client disconnects. The caller must already hold a subscription on j
// (admit and the stream handler both take it atomically); streamJob
// releases it. subscribed=false means attach was refused — an abandoned or
// failed run whose sealed partial bytes are being replayed — and the source
// header says "failed" rather than "live". A server-side failure simply
// truncates the stream (no summary line): the NDJSON wire format has no
// error event, and clients detect the truncation via qoe.DecodeStream's
// ErrTruncatedStream.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, subscribed bool) {
	source := "live"
	if subscribed {
		defer j.unsubscribe()
	} else {
		source = "failed"
	}
	streamHeaders(w, j.id, source)
	n, _ := j.stream(r.Context(), w)
	s.met.bytesStreamed.Add(n)
}

// streamAdmission streams whatever admit routed the request to: cached
// bytes (from whichever tier answered) or a live job (whose subscription
// the admission already holds). start anchors the request's latency
// observation — measured through the end of streaming, per class: mem/disk
// for tier replays, peer/cold for created jobs (by how they resolved),
// dedup for riders on someone else's live job.
func (s *Server) streamAdmission(w http.ResponseWriter, r *http.Request, adm admission, start time.Time) {
	if adm.cached != nil {
		s.replayCached(w, adm.id, adm.tier.source, adm.cached)
		s.lat.Observe(adm.tier.class, time.Since(start))
		return
	}
	s.streamJob(w, r, adm.j, true)
	switch {
	case !adm.created:
		s.lat.Observe("dedup", time.Since(start))
	case adm.j.wasPeerFilled():
		s.lat.Observe("peer", time.Since(start))
	default:
		s.lat.Observe("cold", time.Since(start))
	}
}

// handleWarmProbe answers the peer-fill protocol on the stream endpoint:
// HEAD asks "is this run finished here", GET with the peer-fill header
// fetches the bytes. Both are answered exclusively from the finished local
// tiers (RAM, then disk) — no admission, no simulation, no attaching to
// live jobs. That asymmetry is load-bearing: a probe can fan out across the
// whole fleet without starting any work anywhere, fills can never cascade
// (the peer serving a fill cannot itself be induced to fill from its own
// peers), and a daemon listed in its own peer set harmlessly answers 404.
func (s *Server) handleWarmProbe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.Method == http.MethodHead {
		// Existence only — no bytes read, no tier counters (nothing was
		// served).
		if t := s.has(id); t != nil {
			streamHeaders(w, id, t.source)
			return
		}
	} else if data, _, t, ok := s.fetch(id, s.tiers); ok {
		s.replayCached(w, id, t.source, data)
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "serve: run " + id + " is not warm here"})
}

func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	// HEAD requests reach this handler too (a GET mux pattern matches both);
	// they and peer-fill GETs take the warm-probe path, which never admits.
	if r.Method == http.MethodHead || r.Header.Get(qoe.PeerFillHeader) != "" {
		s.handleWarmProbe(w, r)
		return
	}
	start := time.Now()
	id := r.PathValue("id")
	j, cached, _, t, ok := s.lookup(id)
	if !ok {
		// A completed run whose bytes were evicted is transparently re-run:
		// the ID is a content address of the spec, and determinism makes
		// the re-run reproduce the original bytes. Normal admission control
		// applies (429 when saturated). The re-admission is DURABLE: this
		// run already earned its done record, so a mid-re-run disconnect
		// must not abandon it into a failed tombstone — it completes and
		// restores the record (and cache) instead.
		rec, found := s.completedRecord(id)
		if !found {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "serve: unknown run " + id})
			return
		}
		adm, err := s.admit(rec.spec, false)
		if err != nil {
			s.writeAdmitError(w, err)
			return
		}
		s.streamAdmission(w, r, adm, start)
		return
	}
	if j == nil {
		s.replayCached(w, id, t.source, cached)
		s.lat.Observe(t.class, time.Since(start))
		return
	}
	// Attaching by ID is deliberate: if attach is refused, the job is
	// abandoned or failed — its sealed partial bytes are still served
	// (subscription bookkeeping is moot on a finished run), which is
	// exactly what a client chasing a known run ID should see.
	s.streamJob(w, r, j, j.attach(false))
}

// handleShard is GET /v1/shard?study=...&scale=...&seed=...&lo=...&hi=...:
// the worker endpoint of the distributed study fabric. It streams the
// per-shard aggregate states of one shard range as NDJSON (see
// qoe.ShardEvent) through the same admission, singleflight, and cache
// machinery as full runs — a coordinator retrying a range it already
// fetched replays cached bytes, and a saturated worker answers 429 with
// Retry-After. Jobs are ephemeral: a coordinator that disconnects
// mid-range cancels the abandoned computation.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	seed, err := parseSeed(q.Get("seed"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	lo, err := strconv.Atoi(q.Get("lo"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("serve: bad shard lo %q", q.Get("lo"))})
		return
	}
	hi, err := strconv.Atoi(q.Get("hi"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("serve: bad shard hi %q", q.Get("hi"))})
		return
	}
	cell := 0
	if raw := q.Get("cell"); raw != "" {
		if cell, err = strconv.Atoi(raw); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("serve: bad shard cell %q", raw)})
			return
		}
	}
	// min_schema is the request's declared wire-schema floor: adaptive
	// tuples set it so a worker running an older build rejects them with a
	// typed error instead of serving a stream the coordinator would
	// misinterpret (or, worse, computing the wrong cell).
	if raw := q.Get("min_schema"); raw != "" {
		min, err := strconv.Atoi(raw)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("serve: bad min_schema %q", raw)})
			return
		}
		if min > qoe.SchemaVersion {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error:           fmt.Sprintf("serve: request requires schema_version %d, this worker speaks %d", min, qoe.SchemaVersion),
				Code:            "unsupported_schema",
				RequiredSchema:  min,
				SupportedSchema: qoe.SchemaVersion,
			})
			return
		}
	}
	spec, err := CanonicalizeShard(q.Get("study"), q.Get("scale"), seed, lo, hi, cell)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// The traceparent header (if a coordinator sent one) re-parents this
	// sub-job's spans under the coordinator's trace, so the distributed
	// study stitches into a single trace. The header never touches the
	// NDJSON stream — propagation is pure envelope.
	adm, err := s.admitTraced(spec, true, r.Header.Get(telemetry.TraceparentHeader))
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	s.streamAdmission(w, r, adm, start)
}

// handleFabricWorkers is GET /v1/fabric/workers on a coordinator daemon:
// the worker pool's registration and health state, with each healthy
// worker's own /metrics slice (per-tier cache hits, hit rate, store gauges)
// scraped in — the fleet's warmth at a glance.
func (s *Server) handleFabricWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": qoe.SchemaVersion,
		"workers":        s.cfg.Fabric.WorkersStatusObserved(r.Context()),
	})
}

// handleOneShot is GET /v1/run?experiments=...&scenarios=...&scale=...&seed=...:
// admission and streaming in one request, the curl-able equivalent of
// `qoebench -stream`. Jobs created here are ephemeral — if every client
// streaming them disconnects before the run finishes, the run is cancelled
// to reclaim its worker.
func (s *Server) handleOneShot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	seed, err := parseSeed(q.Get("seed"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	spec, err := Canonicalize(splitList(q["experiments"]), splitList(q["scenarios"]), q.Get("scale"), seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	adm, err := s.admit(spec, true)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	s.streamAdmission(w, r, adm, start)
}
