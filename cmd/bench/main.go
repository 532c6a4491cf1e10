// Command bench runs the repository's performance benchmarks and emits a
// machine-readable report, so the simulator's throughput trajectory is
// tracked PR over PR. It measures the raw emulator hot loop, each timing
// core (baseline / flywheel / regalloc) end to end, and the experiment
// suite through the lab, reporting ns per simulated instruction, heap
// allocations per instruction and simulated MIPS.
//
// Usage:
//
//	go run ./cmd/bench                  # full run, writes BENCH_<date>.json
//	go run ./cmd/bench -quick -o -      # CI smoke: fast budgets, stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"flywheel/internal/analytic"
	"flywheel/internal/asm"
	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/emu"
	"flywheel/internal/experiments"
	"flywheel/internal/explore"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
	"flywheel/internal/trace"
)

// Metrics is one measured configuration.
type Metrics struct {
	NsPerInst     float64 `json:"ns_per_inst"`
	AllocsPerInst float64 `json:"allocs_per_inst"`
	MIPS          float64 `json:"mips"`
}

// SuiteMetrics summarizes the lab-driven experiment suite.
type SuiteMetrics struct {
	Jobs       int     `json:"jobs"`
	Workers    int     `json:"workers"`
	TotalMs    float64 `json:"total_ms"`
	MsPerJob   float64 `json:"ms_per_job"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// DiskHits / SimRuns split the distinct configurations that are not
	// retimed baselines between the persistent store (-store) and fresh
	// simulation; without -store, DiskHits is zero.
	DiskHits uint64 `json:"disk_hits"`
	SimRuns  uint64 `json:"sim_runs"`
	// Trace-cache traffic during the suite: runs that replayed a recorded
	// dynamic trace, runs that recorded one, and the resident encoded size
	// of the recordings afterwards.
	TraceHits   uint64 `json:"trace_hits"`
	TraceMisses uint64 `json:"trace_misses"`
	TraceBytes  int64  `json:"trace_bytes"`
}

// TieredMetrics summarizes a two-tier frontier exploration: how much of
// the grid the calibrated analytic model screened out versus how much was
// escalated to the cycle-accurate simulator, and at what accuracy.
type TieredMetrics struct {
	GridCells        int     `json:"grid_cells"`
	CalibrationCells int     `json:"calibration_cells"`
	AnalyticCells    int     `json:"analytic_cells"`
	ConfirmedCells   int     `json:"confirmed_cells"`
	Margin           float64 `json:"margin"`
	// TimeMAPE is the model's measured (not in-sample) mean relative time
	// error over the confirmed cells.
	TimeMAPE float64 `json:"time_mape"`
	TotalMs  float64 `json:"total_ms"`
}

// FrontendMetrics is one (predictor, prefetcher) combination benchmarked
// on the flywheel core: the simulator throughput it sustains and the
// frontend observables it reports, so a predictor that buys accuracy by
// burning host cycles shows both sides of the trade PR over PR.
type FrontendMetrics struct {
	NsPerInst      float64 `json:"ns_per_inst"`
	MIPS           float64 `json:"mips"`
	BranchAcc      float64 `json:"branch_acc"`
	L2HitRate      float64 `json:"l2_hit"`
	PrefetchIssued uint64  `json:"prefetch_issued"`
	PrefetchUseful uint64  `json:"prefetch_useful"`
	PfAccuracy     float64 `json:"pf_acc"`
	PfCoverage     float64 `json:"pf_cov"`
}

// Report is the emitted document.
type Report struct {
	Date            string             `json:"date"`
	GoVersion       string             `json:"go_version"`
	GOOS            string             `json:"goos"`
	GOARCH          string             `json:"goarch"`
	NumCPU          int                `json:"num_cpu"`
	InstructionsPer uint64             `json:"instructions_per_run"`
	Emu             Metrics            `json:"emu"`
	Cores           map[string]Metrics `json:"cores"`
	// Frontend is keyed "predictor/prefetcher" (e.g. "tage/delta").
	Frontend map[string]FrontendMetrics `json:"frontend"`
	Suite    SuiteMetrics               `json:"suite"`
	Tiered   TieredMetrics              `json:"tiered"`
}

// emuLoop is the steady-state kernel for the raw emulator measurement.
const emuLoop = `
        .data
buf:    .space 64
        .text
        la   r2, buf
        li   r1, 500000000
loop:   ld   r3, 0(r2)
        addi r3, r3, 1
        sd   r3, 0(r2)
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
`

// benchEmu measures the raw emulator step loop; the kernel is steady-state
// and driven purely by testing.Benchmark's b.N, so it takes no budget.
func benchEmu() (Metrics, error) {
	prog, err := asm.Assemble("bench-loop.s", emuLoop)
	if err != nil {
		return Metrics{}, err
	}
	m := emu.New(prog)
	if _, err := m.Run(1000); err != nil {
		return Metrics{}, err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := float64(r.NsPerOp())
	return Metrics{
		NsPerInst:     ns,
		AllocsPerInst: float64(r.AllocsPerOp()),
		MIPS:          1e3 / ns,
	}, nil
}

func benchCore(arch sim.Arch, instructions uint64) (Metrics, error) {
	cfg := sim.RunConfig{
		Workload: "ijpeg", Arch: arch, Node: cacti.Node130,
		FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: instructions,
	}
	// Prime the warm-snapshot cache so the measurement reflects the
	// steady-state hot loop, not one-time setup.
	if _, err := sim.Run(cfg); err != nil {
		return Metrics{}, err
	}
	var retired uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			retired = res.Retired
		}
	})
	if retired == 0 {
		return Metrics{}, fmt.Errorf("bench %v: no instructions retired", arch)
	}
	nsPerInst := float64(r.NsPerOp()) / float64(retired)
	return Metrics{
		NsPerInst:     nsPerInst,
		AllocsPerInst: float64(r.AllocsPerOp()) / float64(retired),
		MIPS:          1e3 / nsPerInst,
	}, nil
}

// benchFrontend measures the flywheel core under every (predictor,
// prefetcher) combination on the same workload benchCore uses.
func benchFrontend(instructions uint64) (map[string]FrontendMetrics, error) {
	out := map[string]FrontendMetrics{}
	for _, pred := range []string{branch.DirGShare, branch.DirTAGE} {
		for _, pf := range []string{mem.PFNone, mem.PFDelta} {
			cfg := sim.RunConfig{
				Workload: "ijpeg", Arch: sim.ArchFlywheel, Node: cacti.Node130,
				FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: instructions,
				Predictor: pred, Prefetcher: pf,
			}
			res, err := sim.Run(cfg) // warm the snapshot cache and capture observables
			if err != nil {
				return nil, err
			}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			if res.Retired == 0 {
				return nil, fmt.Errorf("bench frontend %s/%s: no instructions retired", pred, pf)
			}
			nsPerInst := float64(r.NsPerOp()) / float64(res.Retired)
			out[pred+"/"+pf] = FrontendMetrics{
				NsPerInst:      nsPerInst,
				MIPS:           1e3 / nsPerInst,
				BranchAcc:      res.BranchAccuracy,
				L2HitRate:      res.DemandL2HitRate,
				PrefetchIssued: res.PrefetchIssued,
				PrefetchUseful: res.PrefetchUseful,
				PfAccuracy:     res.PrefetchAccuracy,
				PfCoverage:     res.PrefetchCoverage,
			}
		}
	}
	return out, nil
}

func benchSuite(instructions uint64, storeDir string) (SuiteMetrics, error) {
	jobs := experiments.SuiteJobs(experiments.Options{
		Instructions: instructions, Node: cacti.Node130,
	})
	cache := lab.NewCache()
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return SuiteMetrics{}, err
		}
		cache = lab.NewCacheWithStore(st)
	}
	workers := runtime.GOMAXPROCS(0)
	before := sim.TraceCacheStats()
	start := time.Now()
	if _, err := lab.Run(jobs, lab.Options{Workers: workers, Cache: cache}); err != nil {
		return SuiteMetrics{}, err
	}
	total := time.Since(start)
	cs := cache.Stats()
	after := sim.TraceCacheStats()
	return SuiteMetrics{
		Jobs:        len(jobs),
		Workers:     workers,
		TotalMs:     float64(total.Microseconds()) / 1e3,
		MsPerJob:    float64(total.Microseconds()) / 1e3 / float64(len(jobs)),
		JobsPerSec:  float64(len(jobs)) / total.Seconds(),
		DiskHits:    cs.DiskHits,
		SimRuns:     cs.Misses,
		TraceHits:   after.Hits - before.Hits,
		TraceMisses: after.Misses - before.Misses,
		TraceBytes:  after.ResidentBytes,
	}, nil
}

// benchTiered times an end-to-end two-tier exploration — calibration,
// analytic screen, cycle-accurate confirmation — over a fixed 144-cell
// space, with an in-memory cache so every run starts cold.
func benchTiered(instructions uint64) (TieredMetrics, error) {
	space := explore.Space{
		Profiles:     analytic.DefaultTrainingProfiles(1)[:8],
		Archs:        []sim.Arch{sim.ArchFlywheel},
		FEBoosts:     []int{0, 20, 40, 60, 80, 100},
		BEBoosts:     []int{0, 50, 100},
		Instructions: instructions,
	}
	opt := explore.Options{Cache: lab.NewCache()}
	start := time.Now()
	model, err := analytic.Calibrate(explore.CalibrationConfig(space, opt))
	if err != nil {
		return TieredMetrics{}, err
	}
	rep, err := explore.ExploreTiered(space, model, explore.TieredOptions{Options: opt})
	if err != nil {
		return TieredMetrics{}, err
	}
	return TieredMetrics{
		GridCells:        len(rep.Predicted),
		CalibrationCells: model.TrainingCells,
		AnalyticCells:    len(rep.Predicted) - len(rep.Confirmed),
		ConfirmedCells:   len(rep.Confirmed),
		Margin:           rep.Margin,
		TimeMAPE:         rep.Err.TimeMAPE,
		TotalMs:          float64(time.Since(start).Microseconds()) / 1e3,
	}, nil
}

// loadReport reads a previously emitted BENCH json.
func loadReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare prints per-metric deltas against an old report and returns true
// when any ns/inst (or suite ms/job) metric regressed by more than
// maxRegressPct. maxRegressPct <= 0 reports without gating.
func compare(out io.Writer, oldRep, newRep Report, maxRegressPct float64) (regressed bool) {
	type row struct {
		name     string
		old, new float64
	}
	rows := []row{{"emu ns/inst", oldRep.Emu.NsPerInst, newRep.Emu.NsPerInst}}
	for _, name := range []string{"baseline", "flywheel", "regalloc"} {
		o, hasOld := oldRep.Cores[name]
		n, hasNew := newRep.Cores[name]
		if hasOld && hasNew {
			rows = append(rows, row{name + " ns/inst", o.NsPerInst, n.NsPerInst})
		}
	}
	rows = append(rows, row{"suite ms/job", oldRep.Suite.MsPerJob, newRep.Suite.MsPerJob})

	fmt.Fprintf(out, "compare against %s (gate: +%.1f%%):\n", oldRep.Date, maxRegressPct)
	for _, r := range rows {
		if r.old == 0 {
			continue
		}
		pct := 100 * (r.new - r.old) / r.old
		mark := ""
		if maxRegressPct > 0 && pct > maxRegressPct {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(out, "  %-18s %10.2f -> %10.2f  %+7.1f%%%s\n", r.name, r.old, r.new, pct, mark)
	}
	if maxRegressPct <= 0 {
		return false
	}
	return regressed
}

func run(out io.Writer, quick bool, outPath, storeDir string) (Report, error) {
	instructions := uint64(40_000)
	if quick {
		instructions = 6_000
	}
	rep := Report{
		Date:            time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		InstructionsPer: instructions,
		Cores:           map[string]Metrics{},
	}

	var err error
	if rep.Emu, err = benchEmu(); err != nil {
		return rep, err
	}
	for arch, name := range map[sim.Arch]string{
		sim.ArchBaseline: "baseline",
		sim.ArchFlywheel: "flywheel",
		sim.ArchRegAlloc: "regalloc",
	} {
		m, err := benchCore(arch, instructions)
		if err != nil {
			return rep, err
		}
		rep.Cores[name] = m
	}
	if rep.Frontend, err = benchFrontend(instructions); err != nil {
		return rep, err
	}
	if rep.Suite, err = benchSuite(instructions, storeDir); err != nil {
		return rep, err
	}
	if rep.Tiered, err = benchTiered(instructions); err != nil {
		return rep, err
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return rep, err
	}
	enc = append(enc, '\n')
	if outPath == "-" {
		_, err = out.Write(enc)
		return rep, err
	}
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		return rep, err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	fmt.Fprintf(out, "emu: %.1f ns/inst (%.1f MIPS)  baseline: %.0f ns/inst (%.2f MIPS, %.3f allocs/inst)  flywheel: %.0f ns/inst (%.2f MIPS, %.3f allocs/inst)  suite: %.0f ms for %d jobs  tiered: %d/%d cells confirmed in %.0f ms\n",
		rep.Emu.NsPerInst, rep.Emu.MIPS,
		rep.Cores["baseline"].NsPerInst, rep.Cores["baseline"].MIPS, rep.Cores["baseline"].AllocsPerInst,
		rep.Cores["flywheel"].NsPerInst, rep.Cores["flywheel"].MIPS, rep.Cores["flywheel"].AllocsPerInst,
		rep.Suite.TotalMs, rep.Suite.Jobs,
		rep.Tiered.ConfirmedCells, rep.Tiered.GridCells, rep.Tiered.TotalMs)
	return rep, nil
}

func main() {
	// Indirection so deferred profile flushes run before the process exits
	// (os.Exit inside main would truncate an in-flight CPU profile —
	// precisely on the regressing run whose profile is wanted).
	os.Exit(benchMain())
}

func benchMain() int {
	quick := flag.Bool("quick", false, "reduced instruction budgets (CI smoke)")
	outPath := flag.String("o", "", `output path; "-" for stdout (default BENCH_<date>.json)`)
	storeDir := flag.String("store", "", "persistent result-store directory for the suite benchmark")
	comparePath := flag.String("compare", "", "previous BENCH json to diff against")
	maxRegress := flag.Float64("maxregress", 0, "with -compare: exit nonzero when any ns/inst metric regresses more than this percent (0 = report only)")
	noTrace := flag.Bool("notrace", false, "disable the dynamic-trace cache (A/B the record/replay front end)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Parse()
	if *outPath == "" {
		*outPath = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01-02"))
	}
	if *noTrace {
		sim.SetTraceCachePolicy(trace.Policy{Disabled: true})
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	rep, err := run(os.Stdout, *quick, *outPath, *storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		f.Close()
	}

	if *comparePath != "" {
		oldRep, err := loadReport(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if compare(os.Stdout, oldRep, rep, *maxRegress) {
			fmt.Fprintf(os.Stderr, "bench: ns/inst regression beyond %.1f%%\n", *maxRegress)
			return 2
		}
	}
	return 0
}
