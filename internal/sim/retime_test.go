package sim

import (
	"fmt"
	"reflect"
	"testing"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/mem"
	"flywheel/internal/workload"
)

// TestRetimeEqualsRunAtNode: a 0.13 µm baseline result retimed to any node
// equals, field for field and float for float, the same run simulated at
// that node — for every suite workload, frontend and Figure 2 variant.
func TestRetimeEqualsRunAtNode(t *testing.T) {
	type variant struct {
		name      string
		extraFE   int
		pipelined bool
	}
	variants := []variant{{"plain", 0, false}, {"extra-fe", 1, false}, {"pipelined-ws", 0, true}}
	for _, wl := range workload.Names() {
		for _, pred := range []string{branch.DirGShare, branch.DirTAGE} {
			for _, pf := range []string{mem.PFNone, mem.PFDelta} {
				for _, v := range variants {
					cfg := RunConfig{
						Workload: wl, Arch: ArchBaseline, MaxInstructions: 5_000,
						Predictor: pred, Prefetcher: pf,
						ExtraFrontEndStages: v.extraFE, PipelinedWakeupSelect: v.pipelined,
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%s", wl, pred, pf, v.name), func(t *testing.T) {
						t.Parallel()
						checkRetime(t, cfg)
					})
				}
			}
		}
	}
}

// checkRetime compares Retime(Run at 0.13 µm) against Run at every node.
func checkRetime(t *testing.T, cfg RunConfig) {
	cfg.Node = cacti.Node130
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range cacti.Nodes {
		cfg.Node = node
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("@%v: %v", node, err)
		}
		got, err := Retime(base, node)
		if err != nil {
			t.Fatalf("@%v: retime: %v", node, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("@%v: retimed result differs from the simulated one:\n got %+v\nwant %+v", node, got, want)
		}
	}
}

// TestRetimeRejects: only baseline results retime, and only to a node the
// power model knows.
func TestRetimeRejects(t *testing.T) {
	base, err := Run(RunConfig{Workload: "gzip", MaxInstructions: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Retime(base, cacti.Node(0.1)); err == nil {
		t.Error("retime to unknown node 0.1 succeeded")
	}
	for _, arch := range []Arch{ArchFlywheel, ArchRegAlloc} {
		r, err := Run(RunConfig{Workload: "gzip", Arch: arch, FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 2_000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Retime(r, cacti.Node90); err == nil {
			t.Errorf("retime of a %s result succeeded", arch)
		}
	}
}
