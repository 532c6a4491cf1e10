// Package labd implements the lab batch service: a long-running HTTP/JSON
// front for the two-tier run cache. Where each CLI invocation re-simulates
// from a cold process, a resident labd keeps the memory tier warm and the
// disk tier open, so the paper's whole cross-product of runs is computed
// exactly once across every client, forever.
//
// Protocol (all under /v1):
//
//	POST /v1/sweep     body {"jobs":[Job...], "workers":N}
//	                   → NDJSON, one line per job IN JOB ORDER:
//	                     {"index":i,"key":"...","result":{...}} or
//	                     {"index":i,"key":"...","error":"..."}
//	                   Lines stream as results complete; duplicate jobs —
//	                   within the batch, across batches, across clients —
//	                   simulate once.
//	GET  /v1/frontier  explore-style Pareto query; parameters mirror the
//	                   explore CLI flags (ilp, entropy, fp, mem, stride,
//	                   rr, code, period, chase, stridebytes, seed, passes,
//	                   arch, predictor, prefetcher, fe, be, node, n,
//	                   tier, margin, audit, auditseed); any other
//	                   parameter is a 400. tier=exact (the default)
//	                   simulates every cell; tier=analytic screens the
//	                   grid with a calibrated closed-form model and
//	                   simulates only cells near the predicted frontier;
//	                   tier=auto picks by grid size. The calibration runs
//	                   flow through the shared cache, so they persist in
//	                   the store like any sweep job.
//	GET  /v1/stats     cache hit/miss/in-flight counters, store size,
//	                   uptime and the store version stamp.
//	GET  /v1/health    liveness probe: {"status":"ok",...}, the store
//	                   version stamp and uptime.
//	POST /v1/scrub     audit the disk tier: verify every store entry and
//	                   trace spill file, quarantine corrupt ones, return
//	                   the report. Safe while serving.
//
// Request lifecycle: every sweep job is gated on the request context — a
// client that disconnects mid-stream stops consuming the service the
// moment its running jobs finish; unstarted jobs never claim a semaphore
// slot or a simulation. Undeliverable replies are counted (stats
// dropped_replies) instead of being silently discarded.
package labd

import (
	"encoding/json"
	"fmt"
	"log"
	"maps"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/analytic"
	"flywheel/internal/explore"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/sim"
	"flywheel/internal/trace"
)

// MaxBatch bounds one sweep request; bigger job lists should be split by
// the client (the server's cache makes the split free).
const MaxBatch = 65536

// SweepRequest is the /v1/sweep body.
type SweepRequest struct {
	Jobs []lab.Job `json:"jobs"`
	// Workers caps this request's simulation concurrency; zero or
	// negative uses GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// SweepLine is one NDJSON response line: the i-th job's result or error.
type SweepLine struct {
	Index  int         `json:"index"`
	Key    string      `json:"key"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// StoreStats reports the persistent tier in /v1/stats.
type StoreStats struct {
	Dir        string `json:"dir"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	BadEntries uint64 `json:"bad_entries"`
	Puts       uint64 `json:"puts"`
}

// StatsReply is the /v1/stats body.
type StatsReply struct {
	Cache lab.Stats   `json:"cache"`
	Store *StoreStats `json:"store,omitempty"`
	// TraceCache and SnapshotCache report the simulator-level caches the
	// service shares across every request: the record-once/replay-many
	// dynamic-trace cache and the warm-snapshot cache.
	TraceCache    trace.Stats           `json:"trace_cache"`
	SnapshotCache sim.SnapshotCacheInfo `json:"snapshot_cache"`
	Version       string                `json:"version"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	// DroppedReplies counts responses the service could not deliver — the
	// client vanished mid-reply or mid-NDJSON-stream. Before this counter
	// existed those failures were silently discarded.
	DroppedReplies uint64 `json:"dropped_replies"`
	// CanceledJobs counts sweep jobs skipped because their request's
	// context ended before they started simulating.
	CanceledJobs uint64 `json:"canceled_jobs"`
	// AnalyticCells and ConfirmedCells account the two-tier frontier
	// queries served so far: grid cells screened by the analytic model
	// versus cells escalated to the cycle-accurate simulator. Their ratio
	// is the service's observed screening leverage.
	AnalyticCells  uint64 `json:"analytic_cells"`
	ConfirmedCells uint64 `json:"confirmed_cells"`
	// Scrubs counts /v1/scrub passes served; QuarantinedFiles totals the
	// corrupt files those passes moved aside.
	Scrubs           uint64 `json:"scrubs"`
	QuarantinedFiles uint64 `json:"quarantined_files"`
	// Frontend aggregates the frontend observables of every sweep result
	// this service delivered (cache and store hits included — the counters
	// describe delivered results, not simulation effort).
	Frontend FrontendStats `json:"frontend"`
}

// FrontendStats totals the branch-predictor and prefetcher activity across
// delivered sweep results.
type FrontendStats struct {
	CondBranches   uint64 `json:"cond_branches"`
	Mispredicts    uint64 `json:"mispredicts"`
	PrefetchIssued uint64 `json:"prefetch_issued"`
	PrefetchUseful uint64 `json:"prefetch_useful"`
	PrefetchLate   uint64 `json:"prefetch_late"`
}

// ScrubReply is the /v1/scrub body: the service's store-integrity report.
// Dir is empty when the service runs memory-only (nothing to scrub).
type ScrubReply struct {
	store.ScrubReport
	Dir     string `json:"dir,omitempty"`
	Version string `json:"version"`
}

// HealthReply is the /v1/health body: a liveness probe for supervisors
// and load balancers.
type HealthReply struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// FrontierPoint is one Pareto-optimal configuration in /v1/frontier.
type FrontierPoint struct {
	Profile     string  `json:"profile"`
	Arch        string  `json:"arch"`
	Node        float64 `json:"node"`
	Predictor   string  `json:"predictor"`
	Prefetcher  string  `json:"prefetcher"`
	FEBoostPct  int     `json:"fe_pct"`
	BEBoostPct  int     `json:"be_pct"`
	Speedup     float64 `json:"speedup"`
	EnergyRatio float64 `json:"energy_ratio"`
	ECResidency float64 `json:"ec_residency"`
	IPC         float64 `json:"ipc"`
	TimePS      int64   `json:"time_ps"`
	BranchAcc   float64 `json:"branch_acc"`
	L2HitRate   float64 `json:"l2_hit"`
	PfAccuracy  float64 `json:"pf_acc"`
	PfCoverage  float64 `json:"pf_cov"`
}

// FrontierReply is the /v1/frontier body. Tiered queries (tier=analytic,
// or tier=auto resolving to analytic) additionally report how the grid
// split between the model and the simulator and how well the model
// predicted the cells that were confirmed.
type FrontierReply struct {
	GridPoints int             `json:"grid_points"`
	Tier       string          `json:"tier"`
	Frontier   []FrontierPoint `json:"frontier"`

	// ScreenedCells + ConfirmedCells == GridPoints for tiered queries;
	// both are zero for exact ones.
	ScreenedCells  int `json:"screened_cells,omitempty"`
	ConfirmedCells int `json:"confirmed_cells,omitempty"`
	// Margin is the frontier slack the screen actually used (relevant when
	// the server derived it from the model's training error).
	Margin float64 `json:"margin,omitempty"`
	// PredictionErr compares the model against the simulator on the
	// confirmed cells — measured, not in-sample, error.
	PredictionErr *analytic.Summary `json:"prediction_err,omitempty"`
}

// Server fronts one shared cache. Every request — sweep or frontier, any
// client — funnels through the same memory tier and (if present) the same
// disk store, so results are computed once service-wide.
type Server struct {
	cache *lab.Cache
	start time.Time
	// sem bounds simulation concurrency service-wide at GOMAXPROCS, so
	// neither one huge batch nor many concurrent requests can oversubscribe
	// the machine.
	sem chan struct{}

	logf func(format string, args ...any)

	droppedReplies atomic.Uint64
	canceledJobs   atomic.Uint64
	analyticCells  atomic.Uint64
	confirmedCells atomic.Uint64
	scrubs         atomic.Uint64
	quarantined    atomic.Uint64

	// Frontend observable totals over delivered sweep results.
	condBranches atomic.Uint64
	mispredicts  atomic.Uint64
	pfIssued     atomic.Uint64
	pfUseful     atomic.Uint64
	pfLate       atomic.Uint64

	// scrubMu serializes scrub passes: concurrent scrubs are safe but
	// would double-count each other's quarantine races.
	scrubMu sync.Mutex
}

// NewServer wraps the cache in a service.
func NewServer(cache *lab.Cache) *Server {
	return &Server{
		cache: cache,
		start: time.Now(),
		sem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		logf:  log.Printf,
	}
}

// SetLogf redirects the service's operational log lines (dropped replies,
// aborted streams); the default is log.Printf. A nil f silences them.
func (s *Server) SetLogf(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.logf = f
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/frontier", s.handleFrontier)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("POST /v1/scrub", s.handleScrub)
	return mux
}

// Scrub audits the service's disk tier — every store entry plus the trace
// spill directory that lives alongside it — quarantining anything corrupt
// so the next request for that key re-simulates instead of trusting bad
// bytes. Safe (and intended) to run while the service serves traffic.
func (s *Server) Scrub() (ScrubReply, error) {
	reply := ScrubReply{Version: store.Version()}
	reply.Quarantined = []store.Quarantined{}
	st := s.cache.Store()
	if st == nil {
		return reply, nil // memory-only service: nothing on disk to audit
	}
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	rep, err := st.Scrub(store.ScrubOptions{
		TraceDir:    filepath.Join(st.Dir(), "traces"),
		VerifyTrace: trace.VerifySpillFile,
	})
	if rep != nil {
		reply.ScrubReport = *rep
		if reply.Quarantined == nil {
			reply.Quarantined = []store.Quarantined{}
		}
	}
	reply.Dir = st.Dir()
	if err != nil {
		return reply, err
	}
	s.scrubs.Add(1)
	s.quarantined.Add(uint64(len(rep.Quarantined)))
	if n := len(rep.Quarantined); n > 0 {
		s.logf("labd: scrub quarantined %d corrupt files under %s", n, st.QuarantineDir())
	}
	return reply, nil
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	reply, err := s.Scrub()
	if err != nil {
		http.Error(w, "labd: scrub: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, r, reply)
}

// maxSweepBody caps the request body so a pathological payload (few jobs,
// enormous strings) cannot buffer unbounded memory before MaxBatch applies.
const maxSweepBody = 64 << 20

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "labd: bad sweep request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "labd: empty job list", http.StatusBadRequest)
		return
	}
	if len(req.Jobs) > MaxBatch {
		http.Error(w, fmt.Sprintf("labd: %d jobs exceeds the %d-job batch limit", len(req.Jobs), MaxBatch), http.StatusBadRequest)
		return
	}
	// The client's Workers value can only narrow the per-request
	// concurrency; the server-wide semaphore (GOMAXPROCS) is the hard cap
	// shared by all requests.
	workers := req.Workers
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Jobs) {
		workers = len(req.Jobs)
	}

	// Fan the batch across a bounded pool through the shared cache; each
	// job's outcome lands in its own single-slot channel so the writer can
	// stream strictly in job order while later jobs keep computing. Jobs
	// start in job order too — a dispatcher takes the per-request slots
	// one job at a time — so the head of the stream is computed first and
	// lines flow as they finish instead of waiting on whichever jobs the
	// scheduler happened to start last. The request context gates every
	// stage: a disconnected client's unstarted jobs are skipped before
	// they can claim a semaphore slot or a simulation, so a canceled
	// 65k-job batch stops consuming the service-wide GOMAXPROCS budget
	// almost immediately. Jobs that already started simulating run to
	// completion and land in the shared cache.
	ctx := r.Context()
	type outcome struct {
		res sim.Result
		err error
	}
	ready := make([]chan outcome, len(req.Jobs))
	for i := range ready {
		ready[i] = make(chan outcome, 1)
	}
	cancelFrom := func(i int) {
		for ; i < len(req.Jobs); i++ {
			s.canceledJobs.Add(1)
			ready[i] <- outcome{err: ctx.Err()}
		}
	}
	reqSem := make(chan struct{}, workers)
	go func() {
		for i := range req.Jobs {
			select {
			case reqSem <- struct{}{}:
			case <-ctx.Done():
				cancelFrom(i)
				return
			}
			go func(i int) {
				defer func() { <-reqSem }()
				select {
				case s.sem <- struct{}{}:
				case <-ctx.Done():
					s.canceledJobs.Add(1)
					ready[i] <- outcome{err: ctx.Err()}
					return
				}
				defer func() { <-s.sem }()
				res, err := s.cache.DoContext(ctx, req.Jobs[i])
				ready[i] <- outcome{res, err}
			}(i)
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range req.Jobs {
		var o outcome
		select {
		case o = <-ready[i]:
		case <-ctx.Done():
			s.droppedReplies.Add(1)
			s.logf("labd: sweep stream aborted at line %d/%d: %v", i, len(req.Jobs), ctx.Err())
			return
		}
		line := SweepLine{Index: i, Key: req.Jobs[i].Key()}
		if o.err != nil {
			line.Error = o.err.Error()
		} else {
			line.Result = &o.res
			s.condBranches.Add(o.res.CondBranches)
			s.mispredicts.Add(o.res.Mispredicts)
			s.pfIssued.Add(o.res.PrefetchIssued)
			s.pfUseful.Add(o.res.PrefetchUseful)
			s.pfLate.Add(o.res.PrefetchLate)
		}
		if err := enc.Encode(line); err != nil {
			// Client went away mid-stream; the cache keeps the finished work.
			s.droppedReplies.Add(1)
			s.logf("labd: sweep stream dropped at line %d/%d: %v", i, len(req.Jobs), err)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// frontierParams lists every /v1/frontier query parameter. Any other
// parameter is rejected, as /v1/sweep rejects unknown JSON fields, so a
// misspelled or retired parameter cannot silently change the query.
var frontierParams = []string{
	"ilp", "entropy", "fp", "mem", "stride", "rr", "code", "period", "chase",
	"stridebytes", "arch", "predictor", "prefetcher", "fe", "be", "node",
	"seed", "passes", "n", "tier", "margin", "audit", "auditseed",
}

func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	axes := explore.DefaultAxes()
	q := r.URL.Query()
	for _, name := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(frontierParams, name) {
			http.Error(w, fmt.Sprintf("labd: unknown frontier parameter %q", name), http.StatusBadRequest)
			return
		}
	}
	get := func(name string, dst *string) {
		if v := q.Get(name); v != "" {
			*dst = v
		}
	}
	get("ilp", &axes.ILP)
	get("entropy", &axes.Entropy)
	get("fp", &axes.FPMix)
	get("mem", &axes.Mem)
	get("stride", &axes.Stride)
	get("rr", &axes.Reuse)
	get("code", &axes.Code)
	get("period", &axes.Period)
	get("chase", &axes.Chase)
	get("stridebytes", &axes.StrideBytes)
	get("arch", &axes.Arch)
	get("predictor", &axes.Predictor)
	get("prefetcher", &axes.Prefetcher)
	get("fe", &axes.FE)
	get("be", &axes.BE)
	get("node", &axes.Node)
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "labd: bad seed: "+err.Error(), http.StatusBadRequest)
			return
		}
		axes.Seed = seed
	}
	if v := q.Get("passes"); v != "" {
		passes, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "labd: bad passes: "+err.Error(), http.StatusBadRequest)
			return
		}
		axes.Passes = passes
	}
	if v := q.Get("n"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "labd: bad n: "+err.Error(), http.StatusBadRequest)
			return
		}
		axes.Instructions = n
	}

	tier := q.Get("tier")
	switch tier {
	case "", "exact", "analytic", "auto":
	default:
		http.Error(w, fmt.Sprintf("labd: unknown tier %q (want exact, analytic or auto)", tier), http.StatusBadRequest)
		return
	}
	topt := explore.TieredOptions{Audit: explore.DefaultAudit, AuditSeed: 1}
	if v := q.Get("margin"); v != "" {
		m, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "labd: bad margin: "+err.Error(), http.StatusBadRequest)
			return
		}
		topt.Margin = m
	}
	if v := q.Get("audit"); v != "" {
		a, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "labd: bad audit: "+err.Error(), http.StatusBadRequest)
			return
		}
		topt.Audit = a
	}
	if v := q.Get("auditseed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "labd: bad auditseed: "+err.Error(), http.StatusBadRequest)
			return
		}
		topt.AuditSeed = seed
	}
	if tier == "analytic" || tier == "auto" {
		// The exact guard protects against queueing hours of simulation; a
		// screened grid costs nanoseconds per cell, so it can be far wider.
		axes.MaxPoints = 262_144
	}

	space, err := axes.Space()
	if err != nil {
		http.Error(w, "labd: "+err.Error(), http.StatusBadRequest)
		return
	}
	opt := explore.Options{Cache: s.cache}

	useAnalytic := tier == "analytic"
	if tier == "auto" {
		plan, err := explore.NewPlan(space)
		if err != nil {
			http.Error(w, "labd: "+err.Error(), http.StatusBadRequest)
			return
		}
		useAnalytic = plan.Cells() >= 4*explore.CalibrationConfig(space, opt).Cells()
	}
	if useAnalytic {
		model, err := analytic.Calibrate(explore.CalibrationConfig(space, opt))
		if err != nil {
			http.Error(w, "labd: "+err.Error(), http.StatusInternalServerError)
			return
		}
		topt.Options = opt
		rep, err := explore.ExploreTiered(space, model, topt)
		if err != nil {
			http.Error(w, "labd: "+err.Error(), http.StatusInternalServerError)
			return
		}
		s.analyticCells.Add(uint64(len(rep.Predicted) - len(rep.Confirmed)))
		s.confirmedCells.Add(uint64(len(rep.Confirmed)))
		reply := FrontierReply{
			GridPoints:     len(rep.Predicted),
			Tier:           "analytic",
			Frontier:       []FrontierPoint{},
			ScreenedCells:  len(rep.Predicted) - len(rep.Confirmed),
			ConfirmedCells: len(rep.Confirmed),
			Margin:         rep.Margin,
			PredictionErr:  &rep.Err,
		}
		for _, p := range rep.Frontier() {
			reply.Frontier = append(reply.Frontier, frontierPoint(p))
		}
		s.writeJSON(w, r, reply)
		return
	}

	rep, err := explore.Explore(space, opt)
	if err != nil {
		http.Error(w, "labd: "+err.Error(), http.StatusInternalServerError)
		return
	}
	reply := FrontierReply{GridPoints: len(rep.Points), Tier: "exact", Frontier: []FrontierPoint{}}
	for _, p := range rep.Frontier() {
		reply.Frontier = append(reply.Frontier, frontierPoint(p))
	}
	s.writeJSON(w, r, reply)
}

// frontierPoint shapes one explore point for the wire.
func frontierPoint(p explore.Point) FrontierPoint {
	return FrontierPoint{
		Profile:     p.Profile.String(),
		Arch:        p.Arch.String(),
		Node:        float64(p.Node),
		Predictor:   p.Predictor,
		Prefetcher:  p.Prefetcher,
		FEBoostPct:  p.FEBoost,
		BEBoostPct:  p.BEBoost,
		Speedup:     p.Speedup,
		EnergyRatio: p.EnergyRatio,
		ECResidency: p.Result.ECResidency,
		IPC:         p.Result.IPC,
		TimePS:      p.Result.TimePS,
		BranchAcc:   p.Result.BranchAccuracy,
		L2HitRate:   p.Result.DemandL2HitRate,
		PfAccuracy:  p.Result.PrefetchAccuracy,
		PfCoverage:  p.Result.PrefetchCoverage,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := StatsReply{
		Cache:            s.cache.Stats(),
		TraceCache:       sim.TraceCacheStats(),
		SnapshotCache:    sim.SnapshotCacheInfoNow(),
		Version:          store.Version(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		DroppedReplies:   s.droppedReplies.Load(),
		CanceledJobs:     s.canceledJobs.Load(),
		AnalyticCells:    s.analyticCells.Load(),
		ConfirmedCells:   s.confirmedCells.Load(),
		Scrubs:           s.scrubs.Load(),
		QuarantinedFiles: s.quarantined.Load(),
		Frontend: FrontendStats{
			CondBranches:   s.condBranches.Load(),
			Mispredicts:    s.mispredicts.Load(),
			PrefetchIssued: s.pfIssued.Load(),
			PrefetchUseful: s.pfUseful.Load(),
			PrefetchLate:   s.pfLate.Load(),
		},
	}
	if st := s.cache.Store(); st != nil {
		entries, bytes := st.Size()
		ss := st.Stats()
		reply.Store = &StoreStats{
			Dir: st.Dir(), Entries: entries, Bytes: bytes,
			Hits: ss.Hits, Misses: ss.Misses, BadEntries: ss.BadEntries, Puts: ss.Puts,
		}
	}
	s.writeJSON(w, r, reply)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, HealthReply{
		Status:        "ok",
		Version:       store.Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// writeJSON encodes the reply and accounts for undeliverable ones: a
// client that vanishes mid-reply used to be indistinguishable from success
// (enc.Encode's error was discarded); now it is logged and counted in
// /v1/stats as dropped_replies.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.droppedReplies.Add(1)
		s.logf("labd: %s %s reply dropped: %v", r.Method, r.URL.Path, err)
	}
}
