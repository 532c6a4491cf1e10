package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

// passOut is what one child process reports to the parent.
type passOut struct {
	Correct bool   `json:"correct"`
	Ops     int    `json:"ops"`
	Failed  int    `json:"failed"`
	Note    string `json:"note,omitempty"` // first correctness failure

	SetupS float64   `json:"setup_s"`
	WallS  float64   `json:"wall_s"`
	LatMS  []float64 `json:"lat_ms"` // per operation

	// Traced passes only.
	Layers []layerMetric `json:"layers,omitempty"`
	Spans  []spanTotal   `json:"spans,omitempty"`
}

// layerMetric is one per-layer value; Base says what it was computed from.
type layerMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Base  string  `json:"base"`
}

// pass is the state of one child-process pass of a workload.
type pass struct {
	seed      uint64
	traced    bool   // record spans and probe the layers afterwards
	setupOnly bool   // stop once set up
	capture   string // non-empty: write references into this directory instead of checking
	tmp       string

	spawned time.Time // when the parent started this process
	first   time.Time // when the first measured job or request was issued
	tr      tracer
	out     passOut

	warmMS, buildMS float64 // setup: Workload.WarmState and synth.Build, summed

	// Serve only: store traffic while serving, and the pre-populated keys.
	storeHits, storePuts uint64
	prepopulated         map[string]bool
	explored             bool // the explore layer metrics are in

	// Job bookkeeping for paper and explore, fed by lab's Progress hook.
	mu        sync.Mutex
	callStart time.Time // start of the public call that submitted the batch
	requests  map[string]int
	jobs      map[string]lab.Job
}

func newPass(seed uint64, traced bool, tmp string, spawned time.Time) *pass {
	p := &pass{
		seed: seed, traced: traced, tmp: tmp, spawned: spawned,
		requests: map[string]int{}, jobs: map[string]lab.Job{},
	}
	p.tr.on = traced
	p.out.Correct = true
	return p
}

func runWorkload(p *pass, wl string) error {
	switch wl {
	case "paper":
		return paperPass(p)
	case "explore":
		return explorePass(p)
	case "serve":
		return servePass(p)
	}
	return fmt.Errorf("unknown workload %q", wl)
}

func childMain(wl string, seed uint64, mode string, tmp string, spawned time.Time) int {
	p := newPass(seed, mode == "traced", tmp, spawned)
	p.setupOnly = mode == "setup"
	if err := runWorkload(p, wl); err != nil && err != errSetupDone {
		fmt.Fprintf(os.Stderr, "perfbench: %s pass: %v\n", wl, err)
		return 1
	}
	p.out.Spans = p.tr.totals
	if err := json.NewEncoder(os.Stdout).Encode(p.out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errSetupDone ends a set-up-only pass where its measured part would begin.
var errSetupDone = errors.New("set up")

// begin marks the end of set-up: the first measured job or request is
// about to be issued. A set-up-only pass stops here with errSetupDone.
func (p *pass) begin() error {
	p.first = time.Now()
	p.out.SetupS = p.first.Sub(p.spawned).Seconds()
	if p.setupOnly {
		return errSetupDone
	}
	return nil
}

// finish marks the last result rendered.
func (p *pass) finish() { p.out.WallS = time.Since(p.first).Seconds() }

// fail records ops failed operations and the first reason.
func (p *pass) fail(ops int, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out.Correct = false
	p.out.Failed += ops
	if p.out.Note == "" {
		p.out.Note = fmt.Sprintf(format, args...)
	}
}

// layer adds one per-layer metric.
func (p *pass) layer(name, unit string, value float64, base string, args ...any) {
	p.out.Layers = append(p.out.Layers, layerMetric{Name: name, Unit: unit, Value: value, Base: fmt.Sprintf(base, args...)})
}

// warm runs a workload's initialization phase, the set-up every simulation
// of it shares.
func (p *pass) warm(w *workload.Workload) error {
	var err error
	t0 := time.Now()
	p.tr.span("workload.WarmState", func() { _, _, err = w.WarmState() })
	p.warmMS += ms(time.Since(t0))
	return err
}

// build generates, registers and warms a synthetic profile's program.
func (p *pass) build(prof synth.Profile) error {
	var w *workload.Workload
	var err error
	t0 := time.Now()
	p.tr.span("synth.Build", func() { w, err = synth.Build(prof) })
	p.buildMS += ms(time.Since(t0))
	if err != nil {
		return err
	}
	if err := workload.Register(w); err != nil {
		return err
	}
	return p.warm(w)
}

// call times one public call that submits a batch of jobs; job latencies
// reported by progress run from its start.
func (p *pass) call(name string, f func() error) error {
	p.mu.Lock()
	p.callStart = time.Now()
	p.mu.Unlock()
	var err error
	p.tr.span(name, func() { err = f() })
	return err
}

// progress is lab's per-job completion hook.
func (p *pass) progress(_, _ int, j lab.Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out.Ops++
	p.out.LatMS = append(p.out.LatMS, ms(time.Since(p.callStart)))
	k := j.Key()
	p.requests[k]++
	p.jobs[k] = j
}

// distinct returns the pass's distinct jobs in key order.
func (p *pass) distinct() []lab.Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.jobs))
	for k := range p.jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]lab.Job, len(keys))
	for i, k := range keys {
		out[i] = p.jobs[k]
	}
	return out
}

// concludeJobs ends a paper or explore pass: it checks the rendered text
// and every distinct job's result against the references (or writes them),
// then, in a traced pass, probes the layers.
func (p *pass) concludeJobs(wl string, cache *lab.Cache, text string) error {
	ls, ts := cache.Stats(), sim.TraceCacheStats()
	jobs := p.distinct()
	results := make(map[string]sim.Result, len(jobs))
	for _, j := range jobs {
		r, err := cache.Do(j)
		if err != nil {
			return err
		}
		results[j.Key()] = r
	}
	if p.capture != "" {
		if err := writeText(p.capture, wl+".txt", text); err != nil {
			return err
		}
		return writeJobRefs(p.capture, wl, results)
	}
	want, err := loadText(wl + ".txt")
	if err != nil {
		return err
	}
	if text != want {
		p.fail(1, "%s: rendered output differs from testdata/%s.txt", wl, wl)
	}
	refs, err := loadJobRefs(wl)
	if err != nil {
		return err
	}
	for k, r := range results {
		if msg := refs.check(k, r); msg != "" {
			p.fail(p.requests[k], "%s: %s", wl, msg)
		}
	}
	if !p.traced {
		return nil
	}
	return p.probe(jobs, results, cache, ls, ts)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// tracer records spans around the benchmark's calls into the program's
// layers and keeps, per span name, their count and total time.
type tracer struct {
	on     bool
	mu     sync.Mutex
	totals []spanTotal
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// span times f as a span called name when tracing is on.
func (t *tracer) span(name string, f func()) {
	if !t.on {
		f()
		return
	}
	t0 := time.Now()
	f()
	d := ms(time.Since(t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.totals {
		if t.totals[i].Name == name {
			t.totals[i].Count++
			t.totals[i].TotalMS += d
			return
		}
	}
	t.totals = append(t.totals, spanTotal{Name: name, Count: 1, TotalMS: d})
}
