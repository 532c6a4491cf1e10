package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"flywheel/internal/emu"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
	"flywheel/internal/power"
	"flywheel/internal/sim"
	"flywheel/internal/trace"
	"flywheel/internal/workload"
)

// probe reports the per-layer metrics of a traced pass: the counts its
// measured part left in the lab and trace caches, then timed calls into
// each layer's public functions on the pass's own jobs, with the host
// caches as the measured part left them.
func (p *pass) probe(jobs []lab.Job, results map[string]sim.Result, cache *lab.Cache, ls lab.Stats, ts trace.Stats) error {
	reqs := ls.Hits + ls.DiskHits + ls.Misses
	p.layer("lab.hits", "count", float64(ls.Hits), "memory hits of %d job requests", reqs)
	p.layer("lab.disk_hits", "count", float64(ls.DiskHits), "store hits of %d job requests", reqs)
	p.layer("lab.misses", "count", float64(ls.Misses), "simulated of %d job requests", reqs)
	p.layer("lab.hit_ratio", "ratio", ratio(int(ls.Hits), int(reqs)), "%d memory hits / %d job requests", ls.Hits, reqs)
	var insts uint64
	for _, j := range jobs {
		if !p.prepopulated[j.Key()] {
			insts += results[j.Key()].Retired
		}
	}
	p.layer("sim.runs", "count", float64(ls.Misses), "simulations run (lab misses)")
	p.layer("sim.insts", "count", float64(insts), "instructions retired by the simulated jobs")
	tlook := ts.Hits + ts.Misses + ts.Bypasses
	p.layer("trace.hits", "count", float64(ts.Hits), "replays of %d trace-cache lookups", tlook)
	p.layer("trace.misses", "count", float64(ts.Misses), "recordings of %d trace-cache lookups", tlook)
	p.layer("trace.resident_mb", "MiB", float64(ts.ResidentBytes)/(1<<20), "%d recordings resident", ts.Entries)
	p.layer("trace.hit_ratio", "ratio", ratio(int(ts.Hits), int(tlook)), "%d replays / %d lookups", ts.Hits, tlook)
	p.layer("workload.warm_ms", "ms", p.warmMS, "Workload.WarmState in set-up, summed")
	what := "the workload opens no store"
	if p.prepopulated != nil {
		what = "while serving"
	}
	p.layer("store.hits", "count", float64(p.storeHits), "store.Get hits %s", what)
	p.layer("store.puts", "count", float64(p.storePuts), "store.Put write-throughs %s", what)

	replay, err := p.probeStreams(jobs)
	if err != nil {
		return err
	}
	powerNS := p.probePower(results)
	if err := p.probeSim(jobs, replay, powerNS); err != nil {
		return err
	}
	if err := p.probeRunOverhead(jobs); err != nil {
		return err
	}
	if err := p.probeLab(jobs, cache); err != nil {
		return err
	}
	if err := p.probeStore(jobs, results); err != nil {
		return err
	}
	if err := p.probeLabd(jobs); err != nil {
		return err
	}
	if !p.explored {
		return p.probeExplore()
	}
	return nil
}

// probeStreams times the functional emulator, trace recording and trace
// replay over each program's measured stream, at the pass's largest
// instruction budget for it. It returns replay ns/inst per program.
func (p *pass) probeStreams(jobs []lab.Job) (map[string]float64, error) {
	budget := map[string]uint64{}
	for _, j := range jobs {
		budget[j.Workload] = max(budget[j.Workload], j.MaxInstructions)
	}
	names := make([]string, 0, len(budget))
	for n := range budget {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]emu.Trace, 256)
	drain := func(fill func([]emu.Trace) int) (time.Duration, uint64) {
		t0 := time.Now()
		var n uint64
		for k := fill(buf); k > 0; k = fill(buf) {
			n += uint64(k)
		}
		return time.Since(t0), n
	}
	replay := map[string]float64{}
	var emuT, recT, repT time.Duration
	var insts uint64
	for _, name := range names {
		w, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		snap, _, err := w.WarmState()
		if err != nil {
			return nil, err
		}
		limit := snap.Retired() + budget[name]
		stream := func(skip uint64) (*emu.Stream, error) {
			m := snap.NewMachine()
			if _, err := m.Run(skip); err != nil {
				return nil, err
			}
			return emu.NewStream(m, limit), nil
		}
		live, err := stream(0)
		if err != nil {
			return nil, err
		}
		d, n := drain(live.Fill)
		emuT += d
		tc := trace.NewCache(trace.Policy{})
		g := tc.Acquire(name, snap.Retired(), budget[name], stream)
		if g.Record == nil {
			return nil, fmt.Errorf("trace probe %s: no recording granted", name)
		}
		if live, err = stream(0); err != nil {
			g.Record.Fail()
			return nil, err
		}
		rec := trace.NewRecorder(g.Record, live)
		d, _ = drain(rec.Fill)
		recT += d
		tc.FinishRecorder(rec, rec.Err())
		g = tc.Acquire(name, snap.Retired(), budget[name], stream)
		if g.Replay == nil {
			return nil, fmt.Errorf("trace probe %s: no replay granted", name)
		}
		d, m := drain(g.Replay.Fill)
		if m != n {
			return nil, fmt.Errorf("trace probe %s: replayed %d of %d instructions", name, m, n)
		}
		repT += d
		replay[name] = float64(d.Nanoseconds()) / float64(n)
		insts += n
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(insts) }
	base := fmt.Sprintf("%d insts over %d programs' measured streams", insts, len(names))
	p.layer("emu.ns_per_inst", "ns", per(emuT), "emu.Stream.Fill, %s", base)
	p.layer("trace.record_ns_per_inst", "ns", per(recT), "trace.Recorder.Fill, %s", base)
	p.layer("trace.replay_ns_per_inst", "ns", per(repT), "trace.Reader.Fill, %s", base)
	return replay, nil
}

// probePower times power.Compute on the activity of every dual-clock job
// and returns the mean ns per call.
func (p *pass) probePower(results map[string]sim.Result) float64 {
	type call struct {
		act  power.Activity
		tech power.TechParams
	}
	var calls []call
	for _, r := range results {
		if r.Flywheel == nil {
			continue
		}
		tech, err := power.Tech(r.Config.Node)
		if err != nil {
			continue
		}
		calls = append(calls, call{r.Flywheel.Activity(), tech})
	}
	const reps = 200
	var sink float64
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, c := range calls {
			sink += power.Compute(c.act, power.FlywheelShape(), c.tech).TotalPJ
		}
	}
	n := reps * len(calls)
	ns := float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
	p.layer("power.compute_us", "us", ns/1e3, "mean of %d power.Compute calls on %d dual-clock activities (sum %.3g)", n, len(calls), sink)
	return ns
}

// probeSim re-runs every distinct job through sim.Run on two workers and
// reports each core's cost per retired instruction, in total and less the
// trace replay and power model it includes.
func (p *pass) probeSim(jobs []lab.Job, replayNS map[string]float64, powerNS float64) error {
	type cost struct {
		ns, replayNS float64
		insts        uint64
		n            int
	}
	costs := map[sim.Arch]*cost{}
	var mu sync.Mutex
	err := forEach(len(jobs), func(i int) error {
		j := jobs[i]
		t0 := time.Now()
		r, err := sim.Run(j.Config())
		d := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		c := costs[j.Arch]
		if c == nil {
			c = &cost{}
			costs[j.Arch] = c
		}
		c.ns += d
		c.replayNS += replayNS[j.Workload] * float64(r.Retired)
		c.insts += r.Retired
		c.n++
		return nil
	})
	if err != nil {
		return err
	}
	for _, a := range []struct {
		arch       sim.Arch
		total, own string
	}{
		{sim.ArchBaseline, "sim.baseline_ns_per_inst", "ooo.self_ns_per_inst"},
		{sim.ArchFlywheel, "sim.flywheel_ns_per_inst", "core.flywheel_self_ns_per_inst"},
		{sim.ArchRegAlloc, "sim.regalloc_ns_per_inst", "core.regalloc_self_ns_per_inst"},
	} {
		c := costs[a.arch]
		if c == nil {
			c = &cost{}
		}
		in, pw := float64(max(c.insts, 1)), powerNS*float64(c.n)
		p.layer(a.total, "ns", c.ns/in, "sim.Run over %d distinct %s jobs, %d insts", c.n, a.arch, c.insts)
		p.layer(a.own, "ns", (c.ns-c.replayNS-pw)/in, "sim.Run %.1f - trace replay %.1f - power.Compute %.4f ns/inst over %d %s jobs",
			c.ns/in, c.replayNS/in, pw/in, c.n, a.arch)
	}
	return nil
}

// probeRunOverhead times sim.Run at a 1k-instruction budget for each
// (program, core) pair of the pass, on warm caches.
func (p *pass) probeRunOverhead(jobs []lab.Job) error {
	seen := map[string]bool{}
	var us []float64
	for _, j := range jobs {
		k := fmt.Sprintf("%s/%d", j.Workload, j.Arch)
		if seen[k] {
			continue
		}
		seen[k] = true
		j.MaxInstructions = 1000
		for i := 0; i < 4; i++ {
			t0 := time.Now()
			if _, err := sim.Run(j.Config()); err != nil {
				return err
			}
			if i > 0 { // the first call builds the warm state at this budget
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	p.layer("sim.run_overhead_us", "us", median(us), "median of %d sim.Run calls at 1k insts over %d (program, core) pairs", len(us), len(seen))
	return nil
}

// probeLab times lab.Cache.Do on memoized keys.
func (p *pass) probeLab(jobs []lab.Job, cache *lab.Cache) error {
	const reps = 20
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, j := range jobs {
			if _, err := cache.Do(j); err != nil {
				return err
			}
		}
	}
	n := reps * len(jobs)
	p.layer("lab.hit_us", "us", float64(time.Since(t0).Nanoseconds())/1e3/float64(max(n, 1)),
		"mean of %d lab.Cache.Do calls on %d memoized keys", n, len(jobs))
	return nil
}

// probeStore times store.Put and store.Get of the pass's results in a
// fresh store.
func (p *pass) probeStore(jobs []lab.Job, results map[string]sim.Result) error {
	dir := filepath.Join(p.tmp, "probe-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	jobs = jobs[:min(len(jobs), 64)]
	var put, get []float64
	for _, j := range jobs {
		t0 := time.Now()
		if err := st.Put(j.Key(), results[j.Key()]); err != nil {
			return err
		}
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for _, j := range jobs {
		t0 := time.Now()
		if _, ok := st.Get(j.Key()); !ok {
			return fmt.Errorf("store probe: entry %s missing", j.Key())
		}
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p.layer("store.put_us", "us", median(put), "median of %d store.Put calls of new entries", len(put))
	p.layer("store.get_us", "us", median(get), "median of %d store.Get calls of existing entries", len(get))
	return nil
}

// probeLabd serves a fresh memo cache over loopback and times one-job
// requests that simulate (cold) and that hit memory (warm).
func (p *pass) probeLabd(jobs []lab.Job) error {
	rt := &countingTransport{rt: &http.Transport{}}
	client, stop, err := startLabd(lab.NewCache(), rt)
	if err != nil {
		return err
	}
	defer stop()
	const picks, warmReps = 4, 10
	var picked []lab.Job
	for i := 0; i < picks && i < len(jobs); i++ {
		picked = append(picked, jobs[i*len(jobs)/picks])
	}
	timed := func(j lab.Job) (float64, error) {
		t0 := time.Now()
		_, err := client.Sweep(labd.SweepRequest{Jobs: []lab.Job{j}})
		return ms(time.Since(t0)), err
	}
	var cold, warm []float64
	for _, j := range picked {
		d, err := timed(j)
		if err != nil {
			return err
		}
		cold = append(cold, d)
		for i := 0; i < warmReps; i++ {
			d, err := timed(j)
			if err != nil {
				return err
			}
			warm = append(warm, d)
		}
	}
	n := len(cold) + len(warm)
	p.layer("labd.cold_req_ms", "ms", median(cold), "median of %d one-job requests that simulate", len(cold))
	p.layer("labd.warm_req_ms", "ms", median(warm), "median of %d one-job requests served from memory", len(warm))
	p.layer("labd.resp_bytes_per_job", "bytes", float64(rt.bytes.Load())/float64(max(n, 1)),
		"%d response bytes / %d jobs", rt.bytes.Load(), n)
	return nil
}

// forEach calls f(0..n-1) on the benchmark's worker count and returns the
// first error.
func forEach(n int, f func(i int) error) error {
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
