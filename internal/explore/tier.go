package explore

// Planning vs execution. A Plan is the pure enumeration of a Space — every
// grid job, its baseline jobs, and the Point skeletons, in deterministic
// nested order — with no simulation attached. A Tier is one way of
// attaching numbers to that plan: ExactTier runs every cell through the
// cycle-accurate lab, AnalyticTier fills in a fitted model's predictions
// without simulating anything. ExploreTiered composes them — screen the
// whole grid analytically, confirm only the cells near the predicted
// frontier — and later dimensions (DVFS curves, chip composition) plug in
// as further tiers without touching the planner.

import (
	"fmt"

	"flywheel/internal/analytic"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

// Plan is the execution-free half of an exploration: the normalized space,
// the enumerated grid and baseline jobs, and one unevaluated Point per grid
// cell (parallel to Grid).
type Plan struct {
	Space     Space
	Baselines []lab.Job
	Grid      []lab.Job
	Points    []Point
}

// NewPlan normalizes and validates the space and enumerates its grid.
func NewPlan(s Space) (*Plan, error) {
	s = s.normalize()
	if len(s.Profiles) == 0 {
		return nil, fmt.Errorf("explore: no profiles in the space")
	}
	baselines, grid, points := gridJobs(s)
	return &Plan{Space: s, Baselines: baselines, Grid: grid, Points: points}, nil
}

// Cells reports the number of grid cells the plan enumerates (baseline
// normalization jobs not included).
func (p *Plan) Cells() int { return len(p.Grid) }

// Tier is one fidelity level for evaluating a plan. Evaluate returns a
// fresh copy of the plan's points with Result, Baseline, Speedup and
// EnergyRatio filled; it must not mutate the plan, so one plan can be
// evaluated by several tiers (screen, then confirm).
type Tier interface {
	Name() string
	Evaluate(p *Plan, opt Options) ([]Point, error)
}

// ExactTier evaluates every cell with the cycle-accurate simulator through
// the lab's batched, memoized worker pool — the full-fidelity path every
// paper figure uses.
type ExactTier struct{}

// Name identifies the tier in reports and CLI flags.
func (ExactTier) Name() string { return "exact" }

// Evaluate registers every profile's workload, runs the whole grid plus
// baselines as one batched lab submission, and computes the paper metrics.
func (ExactTier) Evaluate(p *Plan, opt Options) ([]Point, error) {
	if err := registerProfiles(p.Space.Profiles); err != nil {
		return nil, err
	}
	jobs := append(append([]lab.Job{}, p.Baselines...), p.Grid...)
	cache := opt.Cache
	if cache == nil {
		cache = sharedCache
	}
	res, err := lab.Run(jobs, lab.Options{Workers: opt.Workers, Cache: cache, Progress: opt.Progress})
	if err != nil {
		return nil, err
	}

	points := append([]Point(nil), p.Points...)
	// Index the baseline results by (profile, node) in enumeration order.
	base := map[string]sim.Result{}
	for i, j := range p.Baselines {
		base[baseKey(j.Workload, j.Node)] = res[i]
	}
	for i := range points {
		r := res[len(p.Baselines)+i]
		b := base[baseKey(points[i].Profile.Name(), points[i].Node)]
		fillPoint(&points[i], r, b, false)
	}
	return points, nil
}

// AnalyticTier evaluates every cell with a calibrated closed-form model —
// nanoseconds per cell instead of milliseconds — so grids far beyond the
// exact tier's budget can be screened before any simulator runs.
type AnalyticTier struct {
	Model *analytic.Model
}

// Name identifies the tier in reports and CLI flags.
func (AnalyticTier) Name() string { return "analytic" }

// Evaluate predicts every cell and its baseline from the fitted model. No
// workload is generated or registered and no simulation runs.
func (t AnalyticTier) Evaluate(p *Plan, opt Options) ([]Point, error) {
	if t.Model == nil {
		return nil, fmt.Errorf("explore: analytic tier has no model; run analytic.Calibrate first")
	}
	points := append([]Point(nil), p.Points...)
	n := p.Space.Instructions
	// One baseline prediction per (profile, node), mirroring the exact
	// tier's baseline jobs.
	base := map[string]sim.Result{}
	for i := range points {
		pt := &points[i]
		k := baseKey(pt.Profile.Name(), pt.Node)
		b, ok := base[k]
		if !ok {
			var err error
			// The normalization baseline always runs the default frontend,
			// mirroring the exact tier's baseline jobs.
			b, err = t.Model.Predict(pt.Profile, sim.ArchBaseline, pt.Node, 0, 0, analytic.Frontend{}, n)
			if err != nil {
				return nil, err
			}
			base[k] = b
		}
		front := analytic.Frontend{Predictor: pt.Predictor, Prefetcher: pt.Prefetcher}
		r, err := t.Model.Predict(pt.Profile, pt.Arch, pt.Node, pt.FEBoost, pt.BEBoost, front, n)
		if err != nil {
			return nil, err
		}
		fillPoint(pt, r, b, true)
	}
	return points, nil
}

// fillPoint attaches a result and its baseline to the point and derives the
// paper metrics.
func fillPoint(p *Point, r, b sim.Result, predicted bool) {
	p.Result = r
	p.Baseline = b
	p.Speedup = r.Speedup(b)
	p.EnergyRatio = stats.Ratio(r.EnergyPJ, b.EnergyPJ)
	p.Predicted = predicted
}

// registerProfiles generates and registers the synthetic workload of every
// profile; registering an already-registered profile is a cheap no-op.
func registerProfiles(profiles []synth.Profile) error {
	for _, p := range profiles {
		w, err := synth.Build(p)
		if err != nil {
			return err
		}
		if err := workload.Register(w); err != nil {
			return err
		}
	}
	return nil
}
