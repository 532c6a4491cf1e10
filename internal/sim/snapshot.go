package sim

import (
	"fmt"
	"sync"

	"flywheel/internal/asm"
	"flywheel/internal/branch"
	"flywheel/internal/emu"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
	"flywheel/internal/workload"
)

// The warm-snapshot cache makes per-run setup O(1) after the first run of a
// workload. Previously every simulation executed a workload's
// initialization phase twice on a functional emulator — once in
// workload.NewMachine to fast-forward the measured machine and once more in
// the warm() replay that seeds the caches and branch predictor — for every
// grid point of every sweep. Now the first run executes initialization
// once, recording the warm observations and capturing the architectural
// state as a copy-on-write snapshot; every later run clones the snapshot
// (an O(pages-touched-later) copy-on-write clone) and copies its caches and
// predictor from warmed templates, built once per configuration by
// replaying the recorded log, never touching the functional
// initialization path again.
//
// The cache is bounded: entry-count and byte caps evict complete entries
// least-recently-used first (in-flight builds are never evicted), so a
// caller streaming unbounded distinct programs — a fuzzer, a generator
// sweep — trades re-assembly for bounded memory instead of growing without
// limit. Eviction is invisible to correctness: an evicted key rebuilds on
// the next request, and concurrent holders of the evicted entry keep their
// references.

// SnapshotCachePolicy bounds the warm-snapshot cache. The bounds cover the
// cache's own references only: a registered workload also holds its
// snapshot and warm log (workload.WarmState keeps them for the life of the
// process), so evicting its entry frees neither, and the warmed hierarchy
// and predictor templates live until ResetSnapshotCache. Eviction frees
// the entries of ad-hoc programs (RunSource), which nothing else holds.
type SnapshotCachePolicy struct {
	// MaxEntries caps the number of cached snapshots; zero or negative
	// means DefaultSnapshotMaxEntries.
	MaxEntries int
	// MaxBytes caps the estimated resident footprint (frozen memory pages
	// plus the warm log's bytes); zero or negative means
	// DefaultSnapshotMaxBytes.
	MaxBytes int64
}

// Default snapshot-cache bounds.
const (
	DefaultSnapshotMaxEntries = 1024
	DefaultSnapshotMaxBytes   = int64(512) << 20
)

func (p SnapshotCachePolicy) maxEntries() int {
	if p.MaxEntries <= 0 {
		return DefaultSnapshotMaxEntries
	}
	return p.MaxEntries
}

func (p SnapshotCachePolicy) maxBytes() int64 {
	if p.MaxBytes <= 0 {
		return DefaultSnapshotMaxBytes
	}
	return p.MaxBytes
}

// SnapshotCacheInfo is a snapshot of the cache counters.
type SnapshotCacheInfo struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes                   int64
}

// warmSnapshot is the cached one-time work for a workload.
type warmSnapshot struct {
	snap *emu.Snapshot
	// log holds the recorded warm observations; nil when the
	// initialization phase was too long to record (see
	// pipe.MaxWarmLogRecords), in which case runs fall back to functional
	// re-execution for warming.
	log *pipe.WarmLog
}

// bytes estimates the snapshot's resident footprint.
func (ws *warmSnapshot) bytes() int64 {
	b := int64(ws.snap.MemPages()) * 4096
	if ws.log != nil {
		b += ws.log.Bytes()
	}
	return b
}

// snapEntry is one cache slot, built at most once.
type snapEntry struct {
	once  sync.Once
	ws    *warmSnapshot
	err   error
	bytes int64
	used  uint64 // LRU stamp, under snapMu
	built bool   // accounting done, under snapMu
}

var (
	snapMu     sync.Mutex
	snapCache  = map[string]*snapEntry{}
	snapPolicy SnapshotCachePolicy
	snapClock  uint64
	snapBytes  int64
	snapHits   uint64
	snapMisses uint64
	snapEvicts uint64
)

// SetSnapshotCachePolicy replaces the cache bounds; lowering them evicts
// immediately.
func SetSnapshotCachePolicy(p SnapshotCachePolicy) {
	snapMu.Lock()
	defer snapMu.Unlock()
	snapPolicy = p
	evictSnapshotsLocked()
}

// SnapshotCacheStats reports how many simulation setups were served from
// the warm-snapshot cache (hits) versus built by executing a workload's
// initialization phase (misses).
func SnapshotCacheStats() (hits, misses uint64) {
	snapMu.Lock()
	defer snapMu.Unlock()
	return snapHits, snapMisses
}

// SnapshotCacheInfoNow reports the full cache counters.
func SnapshotCacheInfoNow() SnapshotCacheInfo {
	snapMu.Lock()
	defer snapMu.Unlock()
	return SnapshotCacheInfo{
		Hits: snapHits, Misses: snapMisses, Evictions: snapEvicts,
		Entries: len(snapCache), Bytes: snapBytes,
	}
}

// ResetSnapshotCache drops every cached snapshot and zeroes the hit/miss
// counters (for tests and benchmarks that measure cold-start behaviour).
// The per-workload init execution itself (workload.WarmState) is once per
// process and is not re-run after a reset; a post-reset miss rebuilds the
// cache entry from the workload's frozen state.
func ResetSnapshotCache() {
	snapMu.Lock()
	snapCache = map[string]*snapEntry{}
	snapBytes = 0
	snapClock = 0
	snapHits, snapMisses, snapEvicts = 0, 0, 0
	snapMu.Unlock()
	resetWarmStates()
}

// evictSnapshotsLocked enforces the caps, least-recently-used first.
// Entries still building are skipped (their cost is unknown and a waiter
// holds them anyway).
func evictSnapshotsLocked() {
	maxE, maxB := snapPolicy.maxEntries(), snapPolicy.maxBytes()
	for len(snapCache) > maxE || snapBytes > maxB {
		var victim string
		var oldest uint64
		found := false
		for k, e := range snapCache {
			if !e.built {
				continue
			}
			if !found || e.used < oldest {
				victim, oldest, found = k, e.used, true
			}
		}
		if !found {
			return
		}
		snapBytes -= snapCache[victim].bytes
		delete(snapCache, victim)
		snapEvicts++
	}
}

// cachedSnapshot returns the entry for key, building it at most once via
// build; concurrent callers for the same key share one execution
// (singleflight) and every later call is a cache hit until the entry is
// evicted by the caps.
func cachedSnapshot(key string, build func() (*warmSnapshot, error)) (*warmSnapshot, error) {
	snapMu.Lock()
	snapClock++
	e, ok := snapCache[key]
	if ok {
		e.used = snapClock
		snapHits++
	} else {
		e = &snapEntry{used: snapClock}
		snapCache[key] = e
		snapMisses++
	}
	snapMu.Unlock()

	e.once.Do(func() {
		e.ws, e.err = build()
		snapMu.Lock()
		e.built = true
		if e.err == nil {
			e.bytes = e.ws.bytes()
			snapBytes += e.bytes
			evictSnapshotsLocked()
		} else {
			// Failed builds are not worth caching past their flight.
			if snapCache[key] == e {
				delete(snapCache, key)
			}
		}
		snapMu.Unlock()
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.ws, nil
}

// workloadSnapshot builds or fetches the warm snapshot of a registered
// workload. The one-time init execution lives in workload.WarmState (shared
// with Workload.NewMachine, so mixed NewMachine/sim.Run callers never
// fast-forward twice); this cache layer adds the hit/miss accounting and
// the caps. The registry guarantees a name maps to one source text for the
// life of the process, so the name is a sound cache key.
func workloadSnapshot(w *workload.Workload) (*warmSnapshot, error) {
	return cachedSnapshot("workload\x00"+w.Name, func() (*warmSnapshot, error) {
		snap, log, err := w.WarmState()
		if err != nil {
			return nil, err
		}
		return &warmSnapshot{snap: snap, log: log}, nil
	})
}

// sourceSnapshot builds or fetches the load-image snapshot of an ad-hoc
// program (RunSource): assembly and code-image encoding happen once per
// distinct (name, source) pair, and each run starts from a copy-on-write
// clone. Ad-hoc programs have no warm-up phase, so the log stays empty.
// A caller streaming unique programs is bounded by the cache caps.
func sourceSnapshot(name, source string) (*warmSnapshot, error) {
	return cachedSnapshot("source\x00"+name+"\x00"+source, func() (*warmSnapshot, error) {
		prog, err := asm.Assemble(name, source)
		if err != nil {
			return nil, err
		}
		return &warmSnapshot{snap: emu.New(prog).Snapshot(), log: &pipe.WarmLog{}}, nil
	})
}

// machine clones a runnable functional machine from the snapshot.
func (ws *warmSnapshot) machine() *emu.Machine { return ws.snap.NewMachine() }

// The warmed templates: a cache hierarchy per (workload, hierarchy
// config) and a branch predictor per (workload, predictor config), each
// built once by replaying its own events of the warm log, then copied into
// every run's core. The split is exact because warming updates the caches
// and the predictor independently, and it means a grid of H hierarchies
// by P predictors replays H + P half-logs instead of H x P whole ones.
type (
	hierKey struct {
		workload string
		cfg      mem.HierarchyConfig
	}
	predKey struct {
		workload string
		cfg      branch.Config
	}
)

var hierTemplates, predTemplates sync.Map // hierKey -> *template[*mem.Hierarchy], predKey -> *template[*branch.Predictor]

// template is one warmed structure, built at most once.
type template[T any] struct {
	once sync.Once
	v    T
}

// cachedTemplate returns the template stored under key in m, building it
// on first use.
func cachedTemplate[K comparable, T any](m *sync.Map, key K, build func() T) T {
	e, _ := m.LoadOrStore(key, &template[T]{})
	t := e.(*template[T])
	t.once.Do(func() { t.v = build() })
	return t.v
}

// resetWarmStates drops the warmed templates (paired with
// ResetSnapshotCache).
func resetWarmStates() {
	hierTemplates.Clear()
	predTemplates.Clear()
}

// warm seeds a core's caches and branch predictor with the workload's
// initialization-phase observations: a state copy from the warmed
// templates when the log was recorded, or a functional re-execution
// fallback (the pre-cache behaviour) when it could not be.
func (ws *warmSnapshot) warm(warmer *pipe.Warmer, w *workload.Workload, hierCfg mem.HierarchyConfig, branchCfg branch.Config) error {
	if w == nil || w.WarmAddr() == 0 {
		return nil
	}
	if ws.log != nil {
		hier := cachedTemplate(&hierTemplates, hierKey{w.Name, hierCfg}, func() *mem.Hierarchy {
			h := mem.NewHierarchy(hierCfg)
			ws.log.ReplayHierarchy(h)
			return h
		})
		pred := cachedTemplate(&predTemplates, predKey{w.Name, branchCfg}, func() *branch.Predictor {
			p := branch.New(branchCfg)
			ws.log.ReplayPredictor(p)
			return p
		})
		warmer.SeedFrom(pred, hier)
		return nil
	}
	wm := emu.New(w.Program())
	for wm.PC != w.WarmAddr() && !wm.Halted && wm.Retired < workload.WarmUpLimit {
		tr, err := wm.Step()
		if err != nil {
			return fmt.Errorf("sim warm %s: %w", w.Name, err)
		}
		warmer.Observe(tr)
	}
	warmer.Finish()
	return nil
}
