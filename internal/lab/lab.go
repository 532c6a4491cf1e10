// Package lab orchestrates batches of simulations. The paper's evaluation
// is a large cross-product — benchmarks × architectures × boost settings ×
// technology nodes — of mutually independent runs, so the lab fans a job
// list across a worker pool sized to the machine and memoizes results by a
// canonical configuration key: the many experiments that share a
// configuration (e.g. the baseline column repeated across Figures 11-14)
// simulate exactly once. A baseline job at any node other than 0.13 µm
// does not simulate at all: the baseline's cycle behaviour is
// node-invariant, so the cache retimes the same job's 0.13 µm result to
// the node (sim.Retime), bit-identically to simulating it. Results always
// come back in job order, independent of completion order and worker
// count, so a sweep renders byte-identically whether it ran on one core or
// sixty-four.
package lab

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/lab/store"
	"flywheel/internal/mem"
	"flywheel/internal/power"
	"flywheel/internal/sim"
)

// Job is one simulation in a batch: the full identity of a run. Two jobs
// with equal fields are the same experiment and share one cached result.
type Job struct {
	Workload string
	Arch     sim.Arch
	// Node is the technology point; zero means 0.13 µm, like sim.Run.
	Node cacti.Node
	// FEBoostPct / BEBoostPct are the Flywheel clock-ratio knobs (§5).
	FEBoostPct int
	BEBoostPct int
	// MaxInstructions bounds the measured dynamic instruction count;
	// 0 runs to completion.
	MaxInstructions uint64

	// Predictor and Prefetcher select the frontend microarchitecture; empty
	// means the defaults ("gshare", "none"), exactly like sim.RunConfig.
	Predictor  string
	Prefetcher string

	// Figure 2 baseline variants.
	ExtraFrontEndStages   int
	PipelinedWakeupSelect bool
}

func (j Job) normalize() Job {
	if j.Node == 0 {
		j.Node = cacti.Node130
	}
	if j.Predictor == "" {
		j.Predictor = branch.DirGShare
	}
	if j.Prefetcher == "" {
		j.Prefetcher = mem.PFNone
	}
	return j
}

// Key is the canonical cache identity of the job. Fields that default are
// normalized first, so a job written with Node left zero and one written
// with Node130 memoize to the same entry. The workload name — the only
// variable-length, user-controlled field — is Go-quoted, so registered
// names containing the field separators ('|', '='), quotes, or newlines
// cannot forge another job's key: strconv.Quote is injective and its
// output delimits the name unambiguously. The encoding is stable across
// processes; the on-disk store addresses entries by it.
func (j Job) Key() string {
	j = j.normalize()
	return fmt.Sprintf("wl=%s|arch=%d|node=%s|fe=%d|be=%d|n=%d|fes=%d|pws=%t|pred=%s|pf=%s",
		strconv.Quote(j.Workload), j.Arch,
		strconv.FormatFloat(float64(j.Node), 'g', -1, 64),
		j.FEBoostPct, j.BEBoostPct, j.MaxInstructions,
		j.ExtraFrontEndStages, j.PipelinedWakeupSelect,
		strconv.Quote(j.Predictor), strconv.Quote(j.Prefetcher))
}

// Config converts the job to the simulator's run configuration.
func (j Job) Config() sim.RunConfig {
	j = j.normalize()
	return sim.RunConfig{
		Workload:              j.Workload,
		Arch:                  j.Arch,
		Node:                  j.Node,
		FEBoostPct:            j.FEBoostPct,
		BEBoostPct:            j.BEBoostPct,
		MaxInstructions:       j.MaxInstructions,
		Predictor:             j.Predictor,
		Prefetcher:            j.Prefetcher,
		ExtraFrontEndStages:   j.ExtraFrontEndStages,
		PipelinedWakeupSelect: j.PipelinedWakeupSelect,
	}
}

// Cache memoizes simulation results by Job.Key. It is safe for concurrent
// use and deduplicates in-flight work: when two workers ask for the same
// key at once, one simulates and the other waits for its result. A cache
// opened over a store (NewCacheWithStore) adds a persistent second tier:
// memory misses consult the disk store before simulating, and fresh
// results are written through, so the memoization survives process death.
//
// Failed runs are never cached beyond their own flight: the waiters that
// piled onto an in-flight run all receive its error, but the entry is
// evicted before they are released, so the next request retries — a
// transient failure (say, a workload registered later) does not poison the
// key for the process lifetime. A panicking run is converted into an error
// result with the same eviction semantics; waiters can never deadlock on
// an abandoned entry.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*entry
	hits     uint64
	misses   uint64
	diskHits uint64
	retimed  uint64
	inflight int

	disk *store.Store
	// run is the simulation entry point; tests substitute it to inject
	// failures and panics.
	run func(sim.RunConfig) (sim.Result, error)
}

type entry struct {
	done chan struct{} // closed once res/err are filled
	res  sim.Result
	err  error
}

// NewCache returns an empty in-memory run cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*entry{}, run: sim.Run}
}

// NewCacheWithStore returns a run cache layered over a persistent store:
// memory over disk over simulation, with in-flight deduplication intact
// across all three tiers.
func NewCacheWithStore(s *store.Store) *Cache {
	c := NewCache()
	c.disk = s
	return c
}

// Store returns the cache's persistent tier, or nil for a purely
// in-memory cache.
func (c *Cache) Store() *store.Store { return c.disk }

// Do returns the memoized result for j, computing it on first request.
// Concurrent calls with the same key share one computation.
func (c *Cache) Do(j Job) (sim.Result, error) {
	return c.DoContext(context.Background(), j)
}

// DoContext is Do with cancellation. A waiter whose context ends returns
// ctx.Err() immediately; the in-flight computation it was waiting on is
// unaffected and still lands in the cache for everyone else. A caller that
// becomes the filler checks its context once more immediately before the
// simulation starts: a request canceled by then skips the run entirely and
// the entry is evicted, so cancellation never wastes simulation work and
// never caches a hole. Work that has already started is carried to
// completion and cached — a canceled client's finished jobs still benefit
// the next request.
//
// Cancellation cannot poison other requests: when a filler aborts with its
// context error, waiters with still-live contexts observe the eviction and
// retry, taking over the computation themselves.
func (c *Cache) DoContext(ctx context.Context, j Job) (sim.Result, error) {
	key := j.Key()
	for {
		if err := ctx.Err(); err != nil {
			return sim.Result{}, err
		}
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits++
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			if isContextErr(e.err) && ctx.Err() == nil {
				// The filler's request was canceled before its run began;
				// the entry has been evicted. Our context is live, so take
				// over the computation instead of surfacing a stranger's
				// cancellation.
				continue
			}
			return e.res, e.err
		}
		e := &entry{done: make(chan struct{})}
		c.entries[key] = e
		c.inflight++
		c.mu.Unlock()

		c.fill(ctx, e, key, j)
		return e.res, e.err
	}
}

func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// fill computes the entry's result — by retiming for a baseline off
// 0.13 µm, else disk tier first, then simulation — and releases the
// waiters. It is panic-safe: entry.done is closed via
// defer no matter how the run ends, and a panic inside the simulator
// becomes an ordinary error result. Error entries (including recovered
// panics and pre-run cancellations) are evicted before the waiters are
// released.
func (c *Cache) fill(ctx context.Context, e *entry, key string, j Job) {
	defer func() {
		if p := recover(); p != nil {
			e.err = fmt.Errorf("lab: run %s panicked: %v", key, p)
		}
		c.mu.Lock()
		c.inflight--
		if e.err != nil {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(e.done)
	}()

	if j.Arch == sim.ArchBaseline && j.normalize().Node != cacti.Node130 {
		c.retime(ctx, e, j)
		return
	}
	if c.disk != nil {
		if res, ok := c.disk.Get(key); ok {
			c.mu.Lock()
			c.diskHits++
			c.mu.Unlock()
			e.res = res
			return
		}
	}
	// Last cancellation point: beyond here the simulation runs to
	// completion and is cached even if the requester has gone away.
	// Checking before the miss counter keeps Misses an exact count of
	// simulations actually started.
	if err := ctx.Err(); err != nil {
		e.err = fmt.Errorf("lab: run %s: %w", key, err)
		return
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	e.res, e.err = c.run(j.Config())
	if e.err == nil && c.disk != nil {
		// A write-through failure (disk full, permissions) degrades the
		// store to a smaller cache; the computed result is still good.
		_ = c.disk.Put(key, e.res)
	}
}

// retime fills a baseline entry off 0.13 µm by retiming the same job at
// 0.13 µm, requested through the cache; that request's error or
// cancellation becomes the entry's. The store holds only simulations.
func (c *Cache) retime(ctx context.Context, e *entry, j Job) {
	if _, err := power.Tech(j.Node); err != nil { // before anything simulates
		e.err = err
		return
	}
	base := j
	base.Node = cacti.Node130
	res, err := c.DoContext(ctx, base)
	if err == nil {
		res, err = sim.Retime(res, j.Node)
	}
	if err == nil {
		c.mu.Lock()
		c.retimed++
		c.mu.Unlock()
	}
	e.res, e.err = res, err
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts requests served from memory, including waits on
	// in-flight runs. DiskHits counts memory misses served by the
	// persistent store. Misses counts requests that had to simulate.
	// Retimed counts entries filled by retiming a 0.13 µm baseline; that
	// 0.13 µm request is itself counted as a hit, disk hit or miss. For a
	// job list on a fresh cache, Hits+DiskHits+Misses == len(jobs) and
	// DiskHits+Misses+Retimed == the number of distinct keys, regardless
	// of worker count.
	Hits     uint64
	DiskHits uint64
	Misses   uint64
	Retimed  uint64
	// InFlight is the number of computations currently running; Entries
	// the number of memoized configurations.
	InFlight int
	Entries  int
}

// Stats returns a consistent snapshot of all counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:     c.hits,
		DiskHits: c.diskHits,
		Misses:   c.misses,
		Retimed:  c.retimed,
		InFlight: c.inflight,
		Entries:  len(c.entries),
	}
}

// StatsLine renders the cache and store counters as one fixed-shape line,
// shared by the CLIs' -storestats flags and greppable by CI's warm-store
// check (the second pass over a warm store must report "0 sim runs").
func (c *Cache) StatsLine() string {
	s := c.Stats()
	total := s.Hits + s.DiskHits + s.Misses
	diskPct := 0.0
	if s.DiskHits+s.Misses > 0 {
		diskPct = 100 * float64(s.DiskHits) / float64(s.DiskHits+s.Misses)
	}
	line := fmt.Sprintf("store: %d requests, %d memory hits, %d disk hits, %d sim runs (%.1f%% disk), %d retimed",
		total, s.Hits, s.DiskHits, s.Misses, diskPct, s.Retimed)
	if c.disk != nil {
		entries, bytes := c.disk.Size()
		line += fmt.Sprintf("; %d entries, %d bytes on disk", entries, bytes)
	}
	return line
}

// Hits counts requests served from memory (including waits on in-flight
// runs).
func (c *Cache) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses counts requests that had to simulate. Requests served by the
// persistent store count as DiskHits, not misses.
func (c *Cache) Misses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// DiskHits counts memory misses that were served by the persistent store.
func (c *Cache) DiskHits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskHits
}

// Len reports the number of cached configurations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Options configures a batch run.
type Options struct {
	// Workers sets the worker-pool size; zero or negative uses
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoizes runs across calls. Nil uses a fresh private cache, so
	// duplicates within the job list still simulate once.
	Cache *Cache
	// Progress, when non-nil, is called once per completed job with the
	// number finished so far (1..total) and the job. Calls are serialized
	// but arrive in completion order, not job order.
	Progress func(done, total int, j Job)
}

// Run executes the jobs on a worker pool and returns their results in job
// order. Identical jobs — within the list or against a shared cache from
// earlier calls — simulate exactly once. If any job fails, Run finishes the
// batch and returns the error of the lowest-indexed failing job, so the
// error too is deterministic under concurrency.
func Run(jobs []Job, opt Options) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	cache := opt.Cache
	if cache == nil {
		cache = NewCache()
	}

	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = cache.Do(jobs[i])
				if opt.Progress != nil {
					progressMu.Lock()
					done++
					opt.Progress(done, len(jobs), jobs[i])
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
