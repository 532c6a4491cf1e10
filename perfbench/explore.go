package main

import (
	"fmt"
	"time"

	"flywheel/internal/analytic"
	"flywheel/internal/explore"
	"flywheel/internal/lab"
)

// exploreAxes is the explore workload's grid: 12 synthetic profiles (ILP x
// branch entropy x pointer chase) crossed with both dual-clock cores and
// every frontend pairing at three front-end boosts, 288 cells. The 512 KiB
// arena walked at a 64-byte stride misses L1D, so the delta prefetcher
// issues prefetches in every one of its cells. Every axis is set here,
// frontend included, so a change of the program's defaults does not change
// the workload.
func exploreAxes() explore.Axes {
	return explore.Axes{
		ILP: "1,4,6", Entropy: "0,1", FPMix: "0", Mem: "512",
		Stride: "0.5", Reuse: "0", Code: "4",
		Period: "0", Chase: "0,0.5", StrideBytes: "64", Seed: 1,
		Arch: "flywheel,regalloc", FE: "0,50,100", BE: "50", Node: "0.13",
		Predictor: "gshare,tage", Prefetcher: "none,delta",
		Instructions: exploreInsts,
	}
}

// probeAxes is a two-cell grid for timing the synth, analytic and explore
// layers on workloads that do not call them.
func probeAxes() explore.Axes {
	a := exploreAxes()
	a.ILP, a.Entropy, a.Chase = "4", "0", "0"
	a.Arch, a.FE = "flywheel", "0,100"
	a.Predictor, a.Prefetcher = "gshare", "none"
	a.Instructions = 5_000
	return a
}

// tieredRun is the outcome of one calibrated, tiered frontier query.
type tieredRun struct {
	frontier                 string
	calibrate, tiered        time.Duration
	training, grid, confirmd int
}

// exploreTiered calibrates the analytic model on the space and runs the
// tiered query, auditing with the pass's seed.
func exploreTiered(p *pass, a explore.Axes, opt explore.Options) (tieredRun, error) {
	var run tieredRun
	space, err := a.Space()
	if err != nil {
		return run, err
	}
	cfg := explore.CalibrationConfig(space, opt)
	run.training = cfg.Cells()
	var model *analytic.Model
	t0 := time.Now()
	err = p.call("analytic.Calibrate", func() (err error) {
		model, err = analytic.Calibrate(cfg)
		return err
	})
	if err != nil {
		return run, err
	}
	run.calibrate = time.Since(t0)
	var rep *explore.TieredReport
	t0 = time.Now()
	err = p.call("explore.ExploreTiered", func() (err error) {
		rep, err = explore.ExploreTiered(space, model, explore.TieredOptions{Options: opt, AuditSeed: p.seed})
		return err
	})
	if err != nil {
		return run, err
	}
	run.frontier = rep.ConfirmedReport().FrontierTable().String() + "\n"
	run.tiered = time.Since(t0)
	run.grid, run.confirmd = len(rep.Predicted), len(rep.Confirmed)
	return run, nil
}

// explorePass runs the tiered frontier query over freshly generated
// programs and an empty memo cache: 336 simulations.
func explorePass(p *pass) error {
	space, err := exploreAxes().Space()
	if err != nil {
		return err
	}
	for _, prof := range space.Profiles {
		if err := p.build(prof); err != nil {
			return err
		}
	}
	cache := lab.NewCache()
	if err := p.begin(); err != nil {
		return err
	}
	run, err := exploreTiered(p, exploreAxes(), explore.Options{Workers: workers, Cache: cache, Progress: p.progress})
	if err != nil {
		return err
	}
	p.finish()
	if p.traced {
		p.exploreLayers(run, "this workload's query")
	}
	return p.concludeJobs("explore", cache, run.frontier)
}

// exploreLayers reports the synth, analytic and explore layer metrics of
// one tiered query.
func (p *pass) exploreLayers(run tieredRun, what string) {
	p.explored = true
	p.layer("synth.build_ms", "ms", p.buildMS, "synth.Build of the programs of %s, summed", what)
	p.layer("analytic.calibrate_s", "s", run.calibrate.Seconds(), "analytic.Calibrate of %s", what)
	p.layer("analytic.training_cells", "count", float64(run.training), "calibration grid cells of %s", what)
	p.layer("explore.tiered_s", "s", run.tiered.Seconds(), "explore.ExploreTiered of %s", what)
	p.layer("explore.grid_cells", "count", float64(run.grid), "grid cells of %s", what)
	p.layer("explore.confirmed_cells", "count", float64(run.confirmd), "cells confirmed by simulation in %s", what)
	p.layer("explore.confirmed_ratio", "ratio", ratio(run.confirmd, run.grid),
		"%d confirmed / %d grid cells of %s", run.confirmd, run.grid, what)
}

// probeExplore times the synth, analytic and explore layers on the
// two-cell probe grid, for workloads that do not call them.
func (p *pass) probeExplore() error {
	p.buildMS = 0
	space, err := probeAxes().Space()
	if err != nil {
		return err
	}
	for _, prof := range space.Profiles {
		if err := p.build(prof); err != nil {
			return err
		}
	}
	run, err := exploreTiered(p, probeAxes(), explore.Options{Workers: workers, Cache: lab.NewCache()})
	if err != nil {
		return err
	}
	p.exploreLayers(run, fmt.Sprintf("the %d-cell probe grid (the workload calls no such layer)", run.grid))
	return nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
