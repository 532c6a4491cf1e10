package lab

// Baseline jobs at nodes other than 0.13 µm are retimed from the 0.13 µm
// run rather than simulated; these tests pin the accounting and the
// failure semantics they inherit from that run.

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"flywheel/internal/cacti"
	"flywheel/internal/sim"
)

// countingCache returns a cache whose simulator entry point counts its
// calls and delegates to sim.Run.
func countingCache(calls *atomic.Int64) *Cache {
	c := NewCache()
	c.run = func(cfg sim.RunConfig) (sim.Result, error) {
		calls.Add(1)
		return sim.Run(cfg)
	}
	return c
}

// baselineAtEveryNode is one baseline job at each supported node.
func baselineAtEveryNode() []Job {
	var jobs []Job
	for _, n := range cacti.Nodes {
		jobs = append(jobs, Job{Workload: "gzip", Arch: sim.ArchBaseline, Node: n, MaxInstructions: testBudget})
	}
	return jobs
}

func TestRetimedNodesSimulateOnce(t *testing.T) {
	jobs := baselineAtEveryNode()
	var results [][]sim.Result
	var stats []Stats
	for _, workers := range []int{1, 8} {
		var calls atomic.Int64
		c := countingCache(&calls)
		res, err := Run(jobs, Options{Workers: workers, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("workers=%d: %d simulations, want 1", workers, got)
		}
		for i, r := range res {
			if r.Config.Node != jobs[i].Node {
				t.Errorf("workers=%d: result %d at node %v, want %v", workers, i, r.Config.Node, jobs[i].Node)
			}
		}
		results = append(results, res)
		stats = append(stats, c.Stats())
	}
	want := Stats{Hits: 4, Misses: 1, Retimed: 4, Entries: 5}
	for i, st := range stats {
		if st != want {
			t.Errorf("stats[%d] = %+v, want %+v", i, st, want)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("Workers:1 and Workers:8 results differ")
	}
}

func TestRetimedJobsInheritFailure(t *testing.T) {
	var calls atomic.Int64
	c := NewCache()
	c.run = func(sim.RunConfig) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, errors.New("injected")
	}
	for _, n := range []cacti.Node{cacti.Node90, cacti.Node60} {
		j := Job{Workload: "w", Node: n}
		for attempt := int64(1); attempt <= 2; attempt++ {
			before := calls.Load()
			if _, err := c.Do(j); err == nil {
				t.Fatalf("node %v: retimed job succeeded over a failing 0.13um run", n)
			}
			if calls.Load() != before+1 {
				t.Errorf("node %v attempt %d: the failed 0.13um run was not retried", n, attempt)
			}
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Retimed != 0 {
		t.Errorf("failures left entries: %+v", st)
	}

	// An unknown node fails before anything simulates.
	before := calls.Load()
	if _, err := c.Do(Job{Workload: "w", Node: 0.1}); err == nil {
		t.Error("baseline job at node 0.1 succeeded")
	}
	if calls.Load() != before {
		t.Error("baseline job at node 0.1 reached the simulator")
	}
}

func TestRetimedJobCanceledLeavesNoEntry(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	c.run = func(cfg sim.RunConfig) (sim.Result, error) {
		close(started)
		<-release
		return sim.Run(cfg)
	}

	// Canceled on arrival: nothing simulates, nothing is cached.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := Job{Workload: "gzip", Node: cacti.Node90, MaxInstructions: testBudget}
	if _, err := c.DoContext(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("canceled request left traces: %+v", st)
	}

	// Canceled while the 0.13um run it waits on is in flight: the retimed
	// entry is evicted, the 0.13um run still completes and is cached.
	base := j
	base.Node = cacti.Node130
	baseDone := make(chan error, 1)
	go func() {
		_, err := c.Do(base)
		baseDone <- err
	}()
	<-started
	ctx, cancel = context.WithCancel(context.Background())
	retimeDone := make(chan error, 1)
	go func() {
		_, err := c.DoContext(ctx, j)
		retimeDone <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); c.Hits() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the retimed request never joined the in-flight 0.13um run")
		}
	}
	cancel()
	if err := <-retimeDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-baseDone; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 || st.Retimed != 0 {
		t.Errorf("stats = %+v, want only the 0.13um run cached", st)
	}
}
