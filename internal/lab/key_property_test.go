package lab

// Property test for the cache-key contract: Key() must be injective on
// normalized jobs — jobs that differ only in defaulted fields collide to
// one cache entry, and jobs that differ in any meaningful field never
// collide. A violation in either direction is a correctness bug: spurious
// collisions serve the wrong simulation result from cache; missed
// collisions silently duplicate work.

import (
	"math/rand"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/sim"
)

// randomJob draws every field from a small pool so that collisions between
// independently drawn jobs are common enough to exercise both directions
// of the property.
func randomJob(rng *rand.Rand) Job {
	// The pool includes adversarial names: user-registered workloads may
	// contain the key encoding's own metacharacters ('|', '=', quotes,
	// backslashes, newlines) and must still never collide.
	workloads := []string{
		"gzip", "vpr", "synth/i4-e0.5-m32-s0-f0-r0-c4-p4-x1",
		"a|arch=1", "a\"|arch=1", "a\\|arch=1", "a\nb", "wl=a",
	}
	nodes := []cacti.Node{0, cacti.Node130, cacti.Node90, cacti.Node60}
	boosts := []int{0, 50, 100}
	instrs := []uint64{0, 300_000}
	return Job{
		Workload:              workloads[rng.Intn(len(workloads))],
		Arch:                  sim.Arch(rng.Intn(3)),
		Node:                  nodes[rng.Intn(len(nodes))],
		FEBoostPct:            boosts[rng.Intn(len(boosts))],
		BEBoostPct:            boosts[rng.Intn(len(boosts))],
		MaxInstructions:       instrs[rng.Intn(len(instrs))],
		ExtraFrontEndStages:   rng.Intn(2),
		PipelinedWakeupSelect: rng.Intn(2) == 1,
	}
}

func TestKeyEqualsNormalizedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var collisions, distincts int
	// Iteration count is sized to the job space: independent draws collide
	// with probability ~2e-4, so 100k pairs see collisions reliably while
	// the whole test stays well under a second.
	for i := 0; i < 100_000; i++ {
		a, b := randomJob(rng), randomJob(rng)
		sameJob := a.normalize() == b.normalize()
		sameKey := a.Key() == b.Key()
		if sameJob != sameKey {
			t.Fatalf("jobs %+v and %+v: normalized-equal=%t but key-equal=%t (keys %q, %q)",
				a, b, sameJob, sameKey, a.Key(), b.Key())
		}
		if sameKey {
			collisions++
		} else {
			distincts++
		}
	}
	if collisions == 0 || distincts == 0 {
		t.Fatalf("degenerate sample: %d collisions, %d distincts — property not exercised", collisions, distincts)
	}
}

// TestKeyAdversarialNamesNeverCollide pins the escaping fix directly:
// before the workload name was quoted, a registered name embedding the
// separator syntax (e.g. "a|arch=1") could produce the same key as a
// different job with a shorter name — serving the wrong cached result.
// Every pair of jobs below is meaningfully different, so every pair of
// keys must differ.
func TestKeyAdversarialNamesNeverCollide(t *testing.T) {
	names := []string{
		"a", "a|arch=1", "a|arch=1|node=0.13", "a=b", "wl=a",
		"a\nb", "a\tb", "a b", `a"b`, `a\b`, `a\"b`, "a|", "|a", "=",
		"a|fe=50", "a\"|fe=50", "",
	}
	jobs := make([]Job, 0, len(names)*2)
	for _, n := range names {
		jobs = append(jobs,
			Job{Workload: n, Arch: sim.ArchFlywheel, FEBoostPct: 50},
			Job{Workload: n, Arch: sim.ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50})
	}
	seen := map[string]Job{}
	for _, j := range jobs {
		k := j.Key()
		if prev, ok := seen[k]; ok {
			t.Fatalf("distinct jobs collide on key %q:\n  %+v\n  %+v", k, prev, j)
		}
		seen[k] = j
	}
	// And the encoding must still be one line: the disk store and the labd
	// protocol treat a key as a single record.
	for _, j := range jobs {
		for _, c := range j.Key() {
			if c == '\n' || c == '\r' {
				t.Fatalf("key of %+v contains a raw newline: %q", j, j.Key())
			}
		}
	}
}

// TestKeyDefaultedNodeCollides pins the defaulting direction explicitly: a
// job written with Node left zero and one written with Node130 are the
// same experiment.
func TestKeyDefaultedNodeCollides(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		j := randomJob(rng)
		j.Node = 0
		explicit := j
		explicit.Node = cacti.Node130
		if j.Key() != explicit.Key() {
			t.Fatalf("Node 0 and Node130 differ: %q vs %q", j.Key(), explicit.Key())
		}
		other := j
		other.Node = cacti.Node90
		if j.Key() == other.Key() {
			t.Fatalf("Node 0 and Node90 collide: %q", j.Key())
		}
	}
}

// TestKeyGolden pins the key encoding literally. The on-disk store
// addresses entries by these strings and recorded job lists refer to runs
// by them, so any change to the format, the field order or the defaulting
// orphans every stored result.
func TestKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		job  Job
		want string
	}{
		{
			Job{Workload: "gzip"},
			`wl="gzip"|arch=0|node=0.13|fe=0|be=0|n=0|fes=0|pws=false|pred="gshare"|pf="none"`,
		},
		{
			Job{
				Workload: `a|b="c"`, Arch: sim.ArchRegAlloc, Node: cacti.Node90,
				FEBoostPct: 50, BEBoostPct: 25, MaxInstructions: 300_000,
				Predictor: "tage", Prefetcher: "delta",
				ExtraFrontEndStages: 2, PipelinedWakeupSelect: true,
			},
			`wl="a|b=\"c\""|arch=2|node=0.09|fe=50|be=25|n=300000|fes=2|pws=true|pred="tage"|pf="delta"`,
		},
	} {
		if got := tc.job.Key(); got != tc.want {
			t.Errorf("Key() of %+v:\n got %s\nwant %s", tc.job, got, tc.want)
		}
	}
}

// TestKeySingleFieldPerturbation: flipping any one meaningful field of a
// job must change its key.
func TestKeySingleFieldPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	perturb := []func(*Job){
		func(j *Job) { j.Workload += "x" },
		func(j *Job) { j.Arch = (j.Arch + 1) % 3 },
		func(j *Job) { j.FEBoostPct += 5 },
		func(j *Job) { j.BEBoostPct += 5 },
		func(j *Job) { j.MaxInstructions += 1 },
		func(j *Job) { j.ExtraFrontEndStages++ },
		func(j *Job) { j.PipelinedWakeupSelect = !j.PipelinedWakeupSelect },
	}
	for i := 0; i < 500; i++ {
		j := randomJob(rng)
		base := j.Key()
		for k, f := range perturb {
			mod := j
			f(&mod)
			if mod.Key() == base {
				t.Fatalf("perturbation %d left key unchanged: %+v -> %q", k, mod, base)
			}
		}
	}
}
