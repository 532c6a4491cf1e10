package sim

import (
	"fmt"
	"reflect"
	"testing"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/mem"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

// arenaProfile is a synthetic profile with a 512 KiB arena, the largest
// initialization the explore grids warm (655k instructions).
func arenaProfile(chase float64) synth.Profile {
	return synth.Profile{
		ILP: 4, MemFootprintKB: 512, StrideFrac: 0.5, CodeFootprintKB: 4,
		ChaseFrac: chase, StrideBytes: 64, Seed: 1,
	}
}

func registerArena(t *testing.T, chase float64) *workload.Workload {
	t.Helper()
	w, err := synth.Build(arenaProfile(chase))
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Register(w); err != nil {
		t.Fatal(err)
	}
	if w, err = workload.Get(w.Name); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWarmLogRunsMatchFunctionalWarming checks that a run warmed from the
// compact warm log (through the split hierarchy and predictor templates)
// is identical to the same run warmed by functional re-execution of the
// initialization phase, for every suite workload and two 512 KiB-arena
// synthetic profiles, every predictor x prefetcher pair, and L1 line
// sizes below, at and above the default.
func TestWarmLogRunsMatchFunctionalWarming(t *testing.T) {
	wls := workload.All()
	wls = append(wls, registerArena(t, 0), registerArena(t, 0.5))
	archs := []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc}
	lines := []int{16, 32, 64}
	if raceEnabled {
		lines = []int{16} // the default size runs everywhere else
	}
	cell := 0
	for _, w := range wls {
		ws, err := workloadSnapshot(w)
		if err != nil {
			t.Fatal(err)
		}
		if ws.log == nil {
			t.Fatalf("%s: initialization was not recorded", w.Name)
		}
		functional := &warmSnapshot{snap: ws.snap} // no log: re-executes
		for _, pred := range branch.Directions() {
			for _, pf := range mem.Prefetchers() {
				for _, line := range lines {
					cfg := RunConfig{
						Workload: w.Name, Arch: archs[cell%len(archs)],
						FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 3_000,
						Predictor: pred, Prefetcher: pf,
					}
					cell++
					if err := cfg.normalizeFrontend(); err != nil {
						t.Fatal(err)
					}
					cfg.Node = cacti.Node130
					edit := func(h *mem.HierarchyConfig) { h.L1I.LineBytes, h.L1D.LineBytes = line, line }
					got, err := runExact(cfg, w, ws, edit)
					if err != nil {
						t.Fatal(err)
					}
					want, err := runExact(cfg, w, functional, edit)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: log-warmed run differs from functional warming:\nlog:        %+v\nfunctional: %+v",
							describe(cfg, line), got, want)
					}
				}
			}
		}
	}
}

func describe(cfg RunConfig, line int) string {
	return fmt.Sprintf("%s/%v pred=%s pf=%s line=%dB", cfg.Workload, cfg.Arch, cfg.Predictor, cfg.Prefetcher, line)
}

// TestWarmLogFootprint bounds the log of the largest warmed
// initialization: at most 4 B per recorded instruction (a log of whole
// emulator records held 48 B).
func TestWarmLogFootprint(t *testing.T) {
	w := registerArena(t, 0.5)
	_, log, err := w.WarmState()
	if err != nil {
		t.Fatal(err)
	}
	if log == nil {
		t.Fatal("initialization was not recorded")
	}
	perInst := float64(log.Bytes()) / float64(log.Len())
	t.Logf("%s: %d instructions in %d B (%.2f B/inst)", w.Name, log.Len(), log.Bytes(), perInst)
	if perInst > 4 {
		t.Errorf("warm log holds %.2f B per instruction, want <= 4", perInst)
	}
}
