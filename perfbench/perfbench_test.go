package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseSources parses the benchmark's non-test sources.
func parseSources(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// The benchmark must not depend on code slated for possible deletion: the
// sampled tier and the cluster.
func TestNoImportsOfDeletableCode(t *testing.T) {
	forbidden := []string{
		"flywheel/internal/sample", "flywheel/internal/fabric", "flywheel/internal/chaos",
		"flywheel/cmd/labcoord", "flywheel/cmd/labload",
	}
	fset, files := parseSources(t)
	for _, f := range files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, bad := range forbidden {
				if path == bad || strings.HasPrefix(path, bad+"/") {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
				}
			}
		}
	}
}

// Every job and grid the benchmark builds names its predictor and
// prefetcher, so a change of the program's frontend defaults does not
// change the workloads.
func TestFrontendSetExplicitly(t *testing.T) {
	fset, files := parseSources(t)
	checked := 0
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			if pkg == nil || !(pkg.Name == "lab" && sel.Sel.Name == "Job" || pkg.Name == "explore" && sel.Sel.Name == "Axes") {
				return true
			}
			checked++
			keys := map[string]bool{}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						keys[id.Name] = true
					}
				}
			}
			if !keys["Predictor"] || !keys["Prefetcher"] {
				t.Errorf("%s: %s.%s literal does not set Predictor and Prefetcher", fset.Position(lit.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("found no lab.Job or explore.Axes literals")
	}
}

func TestServeRequestsFollowTheSeed(t *testing.T) {
	u := serveUniverse()
	if len(u) != 140 {
		t.Fatalf("universe has %d jobs, want 140", len(u))
	}
	a, b := drawRequests(7, u, 500), drawRequests(7, u, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different requests")
	}
	if reflect.DeepEqual(a, drawRequests(8, u, 500)) {
		t.Fatal("different seeds drew the same requests")
	}
	for i, req := range a {
		seen := map[string]bool{}
		for _, j := range req {
			seen[j.Key()] = true
		}
		if len(req) < 1 || len(req) > 4 || len(seen) != len(req) {
			t.Fatalf("request %d has %d jobs, %d distinct; want 1-4 distinct", i, len(req), len(seen))
		}
	}
}

func TestCompareRefusesDifferentHeaders(t *testing.T) {
	dir := t.TempDir()
	base := header{Workload: "serve", Seed: 1, Seconds: 30, Budget: budgets["serve"],
		GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0", GOAMD64: "v1", Commit: "a"}
	write := func(name string, h header) string {
		t.Helper()
		hb, _ := json.Marshal(map[string]header{"header": h})
		path := filepath.Join(dir, name)
		body := string(hb) + "\nreport line\n" + `{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}` + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old", base)
	other := base
	other.Commit = "b"
	var sb strings.Builder
	if code := compareRuns(&sb, old, write("commit", other)); code != 0 {
		t.Errorf("runs differing only in commit: exit %d, want 0", code)
	}
	other.GOMAXPROCS = 1
	if code := compareRuns(&sb, old, write("procs", other)); code != 3 {
		t.Errorf("runs differing in GOMAXPROCS: exit %d, want 3", code)
	}
	other = base
	other.Seed = 2
	if code := compareRuns(&sb, old, write("seed", other)); code != 3 {
		t.Errorf("runs differing in seed: exit %d, want 3", code)
	}
}

// A count that differs between the traced passes of a run fails the run.
func TestDifferingCountFailsRun(t *testing.T) {
	h := header{Workload: "serve", Trace: true}
	pass := func(traced bool, hits float64) passRun {
		r := passRun{traced: traced}
		r.Correct, r.WallS = true, 1
		if traced {
			r.Layers = []layerMetric{{Name: "lab.hits", Unit: "count", Value: hits}}
		}
		return r
	}
	if res := summarize(h, []passRun{pass(false, 0), pass(true, 7), pass(false, 0), pass(true, 7)}, nil); !res.Correct {
		t.Error("run with repeating counts: correct = false, want true")
	}
	if res := summarize(h, []passRun{pass(false, 0), pass(true, 7), pass(false, 0), pass(true, 8)}, nil); res.Correct {
		t.Error("run with a differing count: correct = true, want false")
	}
}
