// Package sim assembles complete simulations: it picks the clock plan for a
// technology node from the cacti model, fast-forwards a workload to its
// measured phase, runs the chosen machine (baseline superscalar, Flywheel,
// or the Register-Allocation-only configuration), and attaches the energy
// model — producing the single-run results the experiment harness and the
// public API consume.
package sim

import (
	"fmt"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/core"
	"flywheel/internal/emu"
	"flywheel/internal/mem"
	"flywheel/internal/ooo"
	"flywheel/internal/pipe"
	"flywheel/internal/power"
	"flywheel/internal/workload"
)

// Arch selects the machine to simulate.
type Arch int

// Machine architectures.
const (
	// ArchBaseline is the paper's fully synchronous superscalar
	// out-of-order baseline (Table 2).
	ArchBaseline Arch = iota
	// ArchFlywheel is the full proposal: dual-clock issue window,
	// execution cache, two-phase renaming.
	ArchFlywheel
	// ArchRegAlloc is Figure 11's intermediate configuration: dual-clock
	// issue window and the new register allocation without the EC.
	ArchRegAlloc
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchFlywheel:
		return "flywheel"
	case ArchRegAlloc:
		return "regalloc"
	default:
		return "baseline"
	}
}

// RunConfig describes one simulation.
type RunConfig struct {
	Workload string
	Arch     Arch
	// Node selects the technology point; it fixes the baseline clock (the
	// issue-window frequency) and the power model parameters.
	Node cacti.Node
	// FEBoostPct / BEBoostPct are the Flywheel clock-ratio sweep knobs
	// (§5): percentage speedup of the front-end domain and of the
	// trace-execution back-end over the baseline clock.
	FEBoostPct int
	BEBoostPct int
	// MaxInstructions bounds the measured dynamic instruction count
	// (after the workload's warm-up); 0 runs to completion.
	MaxInstructions uint64

	// Predictor selects the conditional-direction predictor ("" or
	// "gshare", "tage", "always-taken") and Prefetcher the L1↔L2
	// prefetcher ("" or "none", "delta") — the pluggable frontend axes.
	Predictor  string
	Prefetcher string

	// Figure 2 baseline variants.
	ExtraFrontEndStages   int
	PipelinedWakeupSelect bool
}

// normalizeFrontend canonicalizes the frontend selections ("" becomes the
// defaults the paper models) and rejects unknown names.
func (c *RunConfig) normalizeFrontend() error {
	if !branch.KnownDirection(c.Predictor) {
		return fmt.Errorf("sim: unknown predictor %q (known: %v)", c.Predictor, branch.Directions())
	}
	if !mem.KnownPrefetcher(c.Prefetcher) {
		return fmt.Errorf("sim: unknown prefetcher %q (known: %v)", c.Prefetcher, mem.Prefetchers())
	}
	if c.Predictor == "" {
		c.Predictor = branch.DirGShare
	}
	if c.Prefetcher == "" {
		c.Prefetcher = mem.PFNone
	}
	return nil
}

// Result is one simulation outcome.
type Result struct {
	Config  RunConfig
	TimePS  int64
	Cycles  uint64
	Retired uint64
	IPC     float64

	// EnergyPJ and PowerW come from the power model at the run's node.
	EnergyPJ    float64
	PowerW      float64
	LeakageFrac float64

	// Flywheel-specific observables (zero for the baseline).
	ECResidency float64
	Divergences uint64
	TraceStats  core.ECStats

	Mispredicts    uint64
	BranchAccuracy float64

	// Frontend observables: conditional-branch volume (with Mispredicts it
	// lets accuracies aggregate across runs), prefetch effectiveness, and
	// the demand-side memory behaviour the prefetcher is meant to improve.
	CondBranches     uint64
	PrefetchIssued   uint64
	PrefetchUseful   uint64
	PrefetchLate     uint64
	PrefetchAccuracy float64
	PrefetchCoverage float64
	AvgDataCycles    float64
	DemandL2HitRate  float64

	// Full per-core statistics for detailed reporting.
	Baseline *ooo.Stats
	Flywheel *core.Stats
}

// Speedup returns other's execution time divided by r's (how much faster r
// is than other).
func (r Result) Speedup(other Result) float64 {
	if r.TimePS == 0 {
		return 0
	}
	return float64(other.TimePS) / float64(r.TimePS)
}

// Run executes one simulation. The first run of a workload executes its
// initialization phase once and caches the result as a copy-on-write warm
// snapshot; every later run — any architecture, boost, node or instruction
// budget — clones the snapshot and replays the recorded warm observations
// instead of re-executing initialization (see snapshot.go).
func Run(cfg RunConfig) (Result, error) {
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return Result{}, err
	}
	if cfg.Node == 0 {
		cfg.Node = cacti.Node130
	}
	if err := cfg.normalizeFrontend(); err != nil {
		return Result{}, err
	}
	ws, err := workloadSnapshot(w)
	if err != nil {
		return Result{}, err
	}
	return runExact(cfg, w, ws, nil)
}

// runExact simulates the normalized cfg exactly over w, warmed from ws
// (editMem as for simulate).
func runExact(cfg RunConfig, w *workload.Workload, ws *warmSnapshot, editMem func(*mem.HierarchyConfig)) (Result, error) {
	// The instruction stream comes from the trace cache: the first run of a
	// workload records the functional emulator's output while consuming it,
	// later runs replay the recording (see tracecache.go).
	stream, finish, err := acquireSource(w, ws, cfg.MaxInstructions)
	if err != nil {
		return Result{}, err
	}
	// finish must run exactly once on every exit — including a panic in a
	// timing core (the lab recovers panics into error results, so without
	// this a recording would stay in-progress forever and concurrent
	// replayers of it would block indefinitely).
	finished := false
	defer func() {
		if !finished {
			finish(fmt.Errorf("sim %s/%s: run aborted", cfg.Workload, cfg.Arch))
		}
	}()
	res, runErr := simulate(cfg, cfg.Workload, stream, w, ws, editMem)
	finish(runErr)
	finished = true
	return res, runErr
}

// simulate runs cfg's timing core over stream and assembles the Result:
// the core's statistics and power.Compute at the run's node. With a
// non-nil w the core is first warmed from ws, the recorded observations
// of the workload's initialization phase (the paper fast-forwards 500M
// instructions); with a nil w it starts cold. editMem, when non-nil, edits
// the modelled memory hierarchy before the core is built (the warm-log
// exactness tests vary cache line sizes). name labels core errors.
func simulate(cfg RunConfig, name string, stream pipe.InstSource, w *workload.Workload, ws *warmSnapshot, editMem func(*mem.HierarchyConfig)) (Result, error) {
	period := cacti.BaselinePeriodPS(cfg.Node)
	tech, err := power.Tech(cfg.Node)
	if err != nil {
		return Result{}, err
	}
	switch cfg.Arch {
	case ArchBaseline:
		bc := baselineConfig(cfg, period)
		if editMem != nil {
			editMem(&bc.Mem)
		}
		c := ooo.New(bc, stream)
		if w != nil {
			if err := ws.warm(c.Warmer(), w, bc.Mem, bc.Branch); err != nil {
				return Result{}, err
			}
		}
		stats, err := c.Run()
		if err != nil {
			return Result{}, fmt.Errorf("sim %s/%s: %w", name, cfg.Arch, err)
		}
		return baselineResult(cfg, stats, tech), nil
	case ArchFlywheel, ArchRegAlloc:
		fc := flywheelConfig(cfg, period)
		if editMem != nil {
			editMem(&fc.Mem)
		}
		c := core.New(fc, stream)
		if w != nil {
			if err := ws.warm(c.Warmer(), w, fc.Mem, fc.Branch); err != nil {
				return Result{}, err
			}
		}
		stats, err := c.Run()
		if err != nil {
			return Result{}, fmt.Errorf("sim %s/%s: %w", name, cfg.Arch, err)
		}
		res := Result{Config: cfg}
		res.TimePS, res.Cycles, res.Retired, res.IPC = stats.TimePS, stats.Cycles(), stats.Retired, stats.IPC
		res.Mispredicts, res.BranchAccuracy = stats.Mispredicts, stats.BranchAccuracy
		res.fillFrontend(stats.CondBranches, stats.Prefetch, stats.Demand)
		res.ECResidency, res.Divergences, res.TraceStats = stats.ECResidency, stats.Divergences, stats.EC
		res.Flywheel = &stats
		res.fillPower(stats.Activity(), power.FlywheelShape(), tech)
		return res, nil
	default:
		return Result{}, fmt.Errorf("sim: unknown architecture %d", cfg.Arch)
	}
}

// baselineResult assembles a baseline Result from the core's statistics:
// the shared observables and power.Compute at cfg's node.
func baselineResult(cfg RunConfig, stats ooo.Stats, tech power.TechParams) Result {
	res := Result{Config: cfg}
	res.TimePS, res.Cycles, res.Retired, res.IPC = stats.TimePS, stats.Cycles, stats.Retired, stats.IPC
	res.Mispredicts, res.BranchAccuracy = stats.Mispredicts, stats.BranchAccuracy
	res.fillFrontend(stats.CondBranches, stats.Prefetch, stats.Demand)
	res.Baseline = &stats
	res.fillPower(baselineActivity(stats), power.BaselineShape(), tech)
	return res
}

// Retime returns the baseline result r as Run would at node. Every latency
// the one-clock baseline models is a whole number of its period (memory is
// 100 baseline cycles at every node, Table 2), so only TimePS and power
// depend on the node. Flywheel's boosted periods round per node, so only
// baseline results retime.
func Retime(r Result, node cacti.Node) (Result, error) {
	tech, err := power.Tech(node)
	if err != nil {
		return Result{}, err
	}
	if r.Config.Arch != ArchBaseline || r.Baseline == nil {
		return Result{}, fmt.Errorf("sim: cannot retime a %s result", r.Config.Arch)
	}
	stats := *r.Baseline
	stats.TimePS = int64(stats.Cycles) * cacti.BaselinePeriodPS(node)
	cfg := r.Config
	cfg.Node = node
	return baselineResult(cfg, stats, tech), nil
}

func baselineConfig(cfg RunConfig, period int64) ooo.Config {
	c := ooo.DefaultConfig()
	c.PeriodPS = period
	c.Mem = mem.DefaultHierarchyConfig(period)
	c.Branch.Direction, c.Mem.Prefetch = frontendFor(cfg)
	c.ExtraFrontEndStages = cfg.ExtraFrontEndStages
	c.PipelinedWakeupSelect = cfg.PipelinedWakeupSelect
	c.MaxCycles = 500_000_000
	return c
}

func flywheelConfig(cfg RunConfig, period int64) core.Config {
	c := core.DefaultConfig()
	c.BasePeriodPS = period
	c.Mem = mem.DefaultHierarchyConfig(period)
	c.Branch.Direction, c.Mem.Prefetch = frontendFor(cfg)
	c.FEBoostPct = cfg.FEBoostPct
	c.BEBoostPct = cfg.BEBoostPct
	c.ECEnabled = cfg.Arch == ArchFlywheel
	c.MaxCycles = 500_000_000
	return c
}

// frontendFor maps the run's (already normalized) frontend selections onto
// the core configuration knobs.
func frontendFor(cfg RunConfig) (direction string, pf mem.PrefetchConfig) {
	direction = cfg.Predictor
	if direction == "" {
		direction = branch.DirGShare
	}
	return direction, mem.DefaultPrefetchConfig(cfg.Prefetcher)
}

// fillFrontend copies the frontend observables into the result.
func (r *Result) fillFrontend(cond uint64, pf mem.PrefetchStats, dm mem.DemandStats) {
	r.CondBranches = cond
	r.PrefetchIssued = pf.Issued
	r.PrefetchUseful = pf.Useful
	r.PrefetchLate = pf.Late
	r.PrefetchAccuracy = pf.Accuracy()
	r.PrefetchCoverage = pf.Coverage()
	r.AvgDataCycles = dm.AvgDataCycles()
	r.DemandL2HitRate = dm.L2HitRate()
}

// fillPower attaches the energy model's report for the run's activity.
func (r *Result) fillPower(act power.Activity, shape power.MachineShape, tech power.TechParams) {
	rep := power.Compute(act, shape, tech)
	r.EnergyPJ, r.PowerW, r.LeakageFrac = rep.TotalPJ, rep.AvgPowerW, rep.LeakageFrac
}

// baselineActivity converts baseline statistics into the power model's
// event record. The baseline is a single clock domain; its grid is modelled
// as global + front-end + back-end local grids all ticking every cycle.
func baselineActivity(s ooo.Stats) power.Activity {
	return power.Activity{
		TimePS:      s.TimePS,
		FECycles:    s.Cycles,
		BECycles:    s.Cycles,
		FetchGroups: s.FetchGroups,
		Fetched:     s.Fetched,
		Renamed:     s.Dispatched,
		BPLookups:   s.PredLookups,
		BPUpdates:   s.PredUpdates,
		IWInserts:   s.IWInserted,
		IWSelects:   s.IWSelected,
		RegReads:    s.RegReads,
		RegWrites:   s.RegWrites,
		FUOps:       s.FUIssued,
		ROBWrites:   s.Dispatched,
		Retires:     s.Retired,
		LSQOps:      s.L1D.Accesses() + s.Forwards,
		L1I:         s.L1I,
		L1D:         s.L1D,
		L2:          s.L2,
	}
}

// RunSource assembles the given program text and runs it like Run does for
// a registered workload (no warm-up: the whole program is measured). The
// Workload field of cfg is used only for labeling. Assembly and image
// loading are cached per (name, source) pair; each run clones the cached
// snapshot copy-on-write.
func RunSource(name, source string, cfg RunConfig) (Result, error) {
	ws, err := sourceSnapshot(name, source)
	if err != nil {
		return Result{}, err
	}
	if cfg.Node == 0 {
		cfg.Node = cacti.Node130
	}
	if err := cfg.normalizeFrontend(); err != nil {
		return Result{}, err
	}
	return simulate(cfg, name, emu.NewStream(ws.machine(), cfg.MaxInstructions), nil, nil, nil)
}
