// Command explore sweeps the multiple-speed-pipeline design space over
// synthetic workloads: it enumerates a (profile × architecture × FE/BE
// boost × technology node) grid, runs it as one batched, memoized,
// parallel job list, and reports each point's speedup and energy against
// its baseline with the Pareto frontier marked.
//
// Profile knobs take comma-separated lists and cross-product into the
// profile axis. Examples:
//
//	explore -ilp 1,6 -entropy 0,1 -fe 0,50,100         # 4 profiles, 12 points
//	explore -ilp 4 -fp 0,0.5 -node 0.13,0.09 -csv      # CSV to stdout
//	explore -frontier -parallel 8                      # frontier only
//	explore -predictor gshare,tage -prefetcher none,delta  # frontend grid
//	explore -store ~/.flywheel-store                   # persist results;
//	                                                   # a re-run simulates nothing
//
// Large grids can be screened with the two-tier explorer: `-tier analytic`
// calibrates a closed-form model on the space's own profiles, predicts
// every cell, and simulates only the cells near the predicted Pareto
// frontier (plus a random audit sample). `-tier auto` picks a tier by
// comparing the grid size against the calibration cost.
//
//	explore -tier analytic -fe 0,10,...,100 -be 0,25,50,75,100
//	explore -tier auto -margin 0.02 -audit 0.05
//
// Every simulated cell is exact: the analytic screen decides only which
// cells to simulate, never what a simulated cell reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flywheel/internal/analytic"
	"flywheel/internal/explore"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags and performs the exploration; it is the whole
// command, factored out of main so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := explore.DefaultAxes()
	var (
		ilp     = fs.String("ilp", def.ILP, "ILP values (independent chains), comma-separated")
		entropy = fs.String("entropy", def.Entropy, "branch entropies in [0,1], comma-separated")
		fpmix   = fs.String("fp", def.FPMix, "floating-point mixes in [0,1], comma-separated")
		mem     = fs.String("mem", def.Mem, "data footprints in KiB, comma-separated")
		stride  = fs.String("stride", def.Stride, "stride fractions in [0,1], comma-separated")
		reuse   = fs.String("rr", def.Reuse, "register-reuse fractions in [0,1], comma-separated")
		code    = fs.String("code", def.Code, "code footprints in KiB, comma-separated")
		period  = fs.String("period", def.Period, "predictable-branch periods (0 = default 512), comma-separated")
		chase   = fs.String("chase", def.Chase, "pointer-chase fractions in [0,1], comma-separated")
		sbytes  = fs.String("stridebytes", def.StrideBytes, "stride step in bytes (0 = default 8), comma-separated")
		seed    = fs.Uint64("seed", def.Seed, "generator seed shared by all profiles")
		passes  = fs.Int("passes", 0, "measured passes per kernel (0 = default)")
		arch    = fs.String("arch", def.Arch, "architectures: baseline, flywheel, regalloc (comma-separated)")
		pred    = fs.String("predictor", def.Predictor, "branch direction predictors: gshare, tage, always-taken (comma-separated)")
		pf      = fs.String("prefetcher", def.Prefetcher, "L2 prefetchers: none, delta (comma-separated)")
		fe      = fs.String("fe", def.FE, "front-end boost percentages, comma-separated")
		be      = fs.String("be", def.BE, "back-end boost percentages, comma-separated")
		node    = fs.String("node", def.Node, "technology nodes in um: 0.18, 0.13, 0.09, 0.06 (comma-separated)")
		n       = fs.Uint64("n", def.Instructions, "measured dynamic instructions per run")
		workers = fs.Int("parallel", 0, "simulation worker-pool size (0 = GOMAXPROCS)")

		tier      = fs.String("tier", "exact", "evaluation tier: exact, analytic, or auto")
		margin    = fs.Float64("margin", 0, "analytic frontier slack fraction (0 = derive from model error, negative = frontier only)")
		audit     = fs.Float64("audit", explore.DefaultAudit, "fraction of screened-out cells confirmed anyway (negative disables)")
		auditSeed = fs.Uint64("auditseed", 1, "audit-sample seed")
		maxPoints = fs.Int("maxpoints", 0, "grid-size guard (0 = 4096 for -tier exact, 262144 otherwise)")

		storeDir   = fs.String("store", "", "persistent result-store directory (empty = in-memory only)")
		storeStats = fs.Bool("storestats", false, "print cache/store statistics to stderr after the run")

		frontierOnly = fs.Bool("frontier", false, "print only the Pareto frontier")
		csvOut       = fs.Bool("csv", false, "emit CSV instead of tables")
		markdown     = fs.Bool("md", false, "emit markdown tables")
	)
	fs.Uint64Var(n, "instructions", def.Instructions, "alias for -n")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *tier != "exact" && *tier != "analytic" && *tier != "auto" {
		fmt.Fprintf(stderr, "explore: unknown tier %q (want exact, analytic or auto)\n", *tier)
		return 2
	}
	guard := *maxPoints
	if guard == 0 && *tier != "exact" {
		// The analytic tier screens cells in nanoseconds; the exact guard
		// would defeat its purpose.
		guard = 262_144
	}
	space, err := explore.Axes{
		ILP: *ilp, Entropy: *entropy, FPMix: *fpmix, Mem: *mem,
		Stride: *stride, Reuse: *reuse, Code: *code, Seed: *seed,
		Period: *period, Chase: *chase, StrideBytes: *sbytes,
		Passes: *passes, Arch: *arch, FE: *fe, BE: *be, Node: *node,
		Predictor: *pred, Prefetcher: *pf,
		Instructions: *n, MaxPoints: guard,
	}.Space()
	if err != nil {
		fmt.Fprintln(stderr, "explore:", err)
		return 2
	}

	opt := explore.Options{Workers: *workers}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "explore:", err)
			return 1
		}
		opt.Cache = lab.NewCacheWithStore(st)
		// Persist recorded dynamic traces next to the results: a second
		// process over this directory replays without re-emulating.
		sim.SetTraceSpillDir(filepath.Join(*storeDir, "traces"))
	} else if *storeStats {
		// No persistent tier, but the counters are still wanted: give the
		// run its own observable in-memory cache.
		opt.Cache = lab.NewCache()
	}

	useAnalytic := *tier == "analytic"
	if *tier == "auto" {
		// Screen analytically only when the grid comfortably out-sizes the
		// calibration cost; small grids are cheaper to just simulate.
		plan, err := explore.NewPlan(space)
		if err != nil {
			fmt.Fprintln(stderr, "explore:", err)
			return 2
		}
		calibCells := explore.CalibrationConfig(space, opt).Cells()
		useAnalytic = plan.Cells() >= 4*calibCells
		fmt.Fprintf(stderr, "explore: auto tier: %d grid cells vs %d calibration cells -> %s\n",
			plan.Cells(), calibCells, map[bool]string{true: "analytic", false: "exact"}[useAnalytic])
	}

	if useAnalytic {
		model, err := analytic.Calibrate(explore.CalibrationConfig(space, opt))
		if err != nil {
			fmt.Fprintln(stderr, "explore:", err)
			return 1
		}
		rep, err := explore.ExploreTiered(space, model, explore.TieredOptions{
			Options: opt, Margin: *margin, Audit: *audit, AuditSeed: *auditSeed,
		})
		if err != nil {
			fmt.Fprintln(stderr, "explore:", err)
			return 1
		}
		fmt.Fprintln(stderr, "explore:", rep.Summary())
		switch {
		case *csvOut:
			fmt.Fprint(stdout, rep.CSV())
		case *frontierOnly:
			emit(stdout, rep.ConfirmedReport().FrontierTable(), *markdown)
		default:
			emit(stdout, rep.ConfirmedReport().Table(), *markdown)
			emit(stdout, rep.ConfirmedReport().FrontierTable(), *markdown)
		}
	} else {
		rep, err := explore.Explore(space, opt)
		if err != nil {
			fmt.Fprintln(stderr, "explore:", err)
			return 1
		}
		switch {
		case *csvOut:
			fmt.Fprint(stdout, rep.CSV())
		case *frontierOnly:
			emit(stdout, rep.FrontierTable(), *markdown)
		default:
			emit(stdout, rep.Table(), *markdown)
			emit(stdout, rep.FrontierTable(), *markdown)
		}
	}
	if *storeStats && opt.Cache != nil {
		fmt.Fprintln(stderr, opt.Cache.StatsLine())
		fmt.Fprintln(stderr, sim.TraceCacheStats())
	}
	return 0
}

func emit(w io.Writer, t *stats.Table, markdown bool) {
	if markdown {
		fmt.Fprintln(w, t.Markdown())
	} else {
		fmt.Fprintln(w, t.String())
	}
}
