package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passRun is one child pass as the parent saw it.
type passRun struct {
	passOut
	traced bool
	rssMiB float64
	cpuS   float64 // user + system time of the child
}

// parentMain runs the workload's passes, each in its own process, and
// prints the header, a report and the result line.
func parentMain(h header) int {
	hb, _ := json.Marshal(map[string]header{"header": h})
	fmt.Println(string(hb))
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(170*time.Second))
	defer cancel()
	// A pass starts while, judged by the last pass of its kind, it would
	// be at least half done by -seconds, so a run's length stays close to
	// -seconds whatever a pass costs. The first pass of each kind always
	// runs, and a traced run makes at least two traced passes, so that its
	// counts are seen to repeat.
	minPasses := 1
	if h.Trace {
		minPasses = 2
	}
	// Set-up is short beside a pass and jitters with process start, so an
	// untraced run first sets up alone, in processes that stop where the
	// first job or request would be issued, for a tenth of -seconds (at
	// most maxSetups); setup_s is the median over these and the passes.
	var setups []float64
	for i := 0; !h.Trace && i < maxSetups && time.Since(start) < time.Duration(h.Seconds)*time.Second/10; i++ {
		r, err := runPass(ctx, exe, h, "setup", filepath.Join(tmp, fmt.Sprintf("setup-%d-%d", os.Getpid(), i)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up %d: %v\n", i, err)
			return 1
		}
		setups = append(setups, r.SetupS)
	}
	var runs []passRun
	last := map[bool]time.Duration{}
	made := map[bool]int{}
	for i := 0; ; i++ {
		traced := h.Trace && i%2 == 1
		el := time.Since(start)
		if d := last[traced]; made[traced] >= minPasses && (el+d/2 > time.Duration(h.Seconds)*time.Second || el > hardStopS*time.Second) {
			break
		}
		t0 := time.Now()
		mode := "untraced"
		if traced {
			mode = "traced"
		}
		r, err := runPass(ctx, exe, h, mode, filepath.Join(tmp, fmt.Sprintf("pass-%d-%d", os.Getpid(), i)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", i, err)
			return 1
		}
		last[traced] = time.Since(t0)
		made[traced]++
		runs = append(runs, r)
	}
	res := summarize(h, runs, setups)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runPass runs one pass in a child process, in mode untraced, traced or
// setup, and returns its report.
func runPass(ctx context.Context, exe string, h header, mode, dir string) (passRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return passRun{}, err
	}
	defer os.RemoveAll(dir)
	var stdout bytes.Buffer
	spawned := time.Now()
	cmd := exec.CommandContext(ctx, exe, "-pass", h.Workload, "-mode", mode,
		"-seed", strconv.FormatUint(h.Seed, 10), "-tmp", dir,
		"-spawned", strconv.FormatInt(spawned.UnixNano(), 10))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // a pass never outlives its run
	if err := cmd.Run(); err != nil {
		return passRun{}, fmt.Errorf("%s pass: %w", mode, err)
	}
	r := passRun{traced: mode == "traced"}
	if err := json.Unmarshal(stdout.Bytes(), &r.passOut); err != nil {
		return passRun{}, fmt.Errorf("%s pass output: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		r.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return r, nil
}

// summarize prints the report and builds the result: medians over the
// untraced passes (and, for setup_s, the set-up-only processes) for the
// end-to-end metrics, over the traced passes for the per-layer ones.
func summarize(h header, runs []passRun, setups []float64) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var untraced, traced []passRun
	for i, r := range runs {
		res.Attempted += r.Ops
		res.Failed += r.Failed
		if !r.Correct || r.Failed > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: pass %d failed its correctness check: %s\n", i, r.Note)
		}
		kind := "untraced"
		if r.traced {
			kind = "traced"
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
		fmt.Printf("pass %d %-8s setup %.3fs wall %.3fs cpu %.3fs rss %.1fMiB ops %d failed %d\n",
			i, kind, r.SetupS, r.WallS, r.cpuS, r.rssMiB, r.Ops, r.Failed)
	}
	med := func(rs []passRun, f func(passRun) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	wall := med(untraced, func(r passRun) float64 { return r.WallS })
	if !h.Trace {
		samples := 0
		for _, r := range untraced {
			samples += len(r.LatMS)
		}
		put := func(name, unit string, v float64, base string) {
			res.Metrics[name] = metric{Value: v, Unit: unit}
			fmt.Printf("%-22s %12.6g %-5s %s\n", name, v, unit, base)
		}
		n := len(untraced)
		op := map[string]string{"paper": "job", "explore": "job", "serve": "request"}[h.Workload]
		for _, r := range untraced {
			setups = append(setups, r.SetupS)
		}
		put("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups: %d set-up-only processes and %d passes", len(setups), len(setups)-n, n))
		put("wall_s", "s", wall, fmt.Sprintf("median of %d passes", n))
		put("peak_rss_mb", "MiB", med(untraced, func(r passRun) float64 { return r.rssMiB }), fmt.Sprintf("median of %d passes", n))
		put("req_p50_ms", "ms", med(untraced, func(r passRun) float64 { return quantile(r.LatMS, 0.5) }),
			fmt.Sprintf("median over %d passes of each pass's median %s latency; %d samples", n, op, samples))
		put("req_p99_ms", "ms", med(untraced, func(r passRun) float64 { return quantile(r.LatMS, 0.99) }),
			fmt.Sprintf("median over %d passes of each pass's p99 %s latency; %d samples", n, op, samples))
		put("req_per_s", "1/s", med(untraced, func(r passRun) float64 { return float64(len(r.LatMS)) / r.WallS }),
			fmt.Sprintf("median over %d passes of %ss completed / wall_s", n, op))
		return res
	}

	byName := map[string][]float64{}
	var order []layerMetric
	for _, r := range traced {
		for _, l := range r.Layers {
			if _, ok := byName[l.Name]; !ok {
				order = append(order, l)
			}
			byName[l.Name] = append(byName[l.Name], l.Value)
		}
	}
	tw := med(traced, func(r passRun) float64 { return r.WallS })
	order = append(order, layerMetric{Name: "tracing_overhead", Unit: "ratio",
		Base: fmt.Sprintf("traced wall_s %.4gs / untraced wall_s %.4gs, medians of %d and %d passes", tw, wall, len(traced), len(untraced))})
	byName["tracing_overhead"] = []float64{tw / wall}
	for _, l := range order {
		xs := byName[l.Name]
		if l.Unit == "count" && slices.Min(xs) != slices.Max(xs) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: count %s differs between traced passes: %v\n", l.Name, xs)
		}
		v := median(xs)
		res.Metrics[l.Name] = metric{Value: v, Unit: l.Unit}
		fmt.Printf("%-32s %14.6g %-6s %s\n", l.Name, v, l.Unit, l.Base)
	}
	for _, r := range traced[:1] {
		sort.Slice(r.Spans, func(a, b int) bool { return r.Spans[a].TotalMS > r.Spans[b].TotalMS })
		for _, s := range r.Spans {
			fmt.Printf("span %-28s count %6d total %10.1fms\n", s.Name, s.Count, s.TotalMS)
		}
	}
	return res
}
