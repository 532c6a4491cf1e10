package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportJSONShape pins the emitted schema: downstream tooling greps
// these keys out of BENCH_<date>.json.
func TestReportJSONShape(t *testing.T) {
	rep := Report{
		Date:            "2026-01-01T00:00:00Z",
		Cores:           map[string]Metrics{"baseline": {NsPerInst: 1, MIPS: 1000}},
		Suite:           SuiteMetrics{Jobs: 3},
		InstructionsPer: 42,
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"date", "go_version", "goos", "goarch", "num_cpu",
		"instructions_per_run", "emu", "cores", "suite",
	} {
		if _, ok := got[key]; !ok {
			t.Errorf("report JSON missing key %q", key)
		}
	}
	cores := got["cores"].(map[string]any)
	base := cores["baseline"].(map[string]any)
	for _, key := range []string{"ns_per_inst", "allocs_per_inst", "mips"} {
		if _, ok := base[key]; !ok {
			t.Errorf("core metrics missing key %q", key)
		}
	}
	suite := got["suite"].(map[string]any)
	for _, key := range []string{"trace_hits", "trace_misses", "trace_bytes", "disk_hits", "sim_runs"} {
		if _, ok := suite[key]; !ok {
			t.Errorf("suite metrics missing key %q", key)
		}
	}
	tiered := got["tiered"].(map[string]any)
	for _, key := range []string{
		"grid_cells", "calibration_cells", "analytic_cells",
		"confirmed_cells", "margin", "time_mape", "total_ms",
	} {
		if _, ok := tiered[key]; !ok {
			t.Errorf("tiered metrics missing key %q", key)
		}
	}
}

// TestBenchTieredTiny drives the two-tier measurement end to end with a
// tiny budget: the analytic screen must carry most of the grid.
func TestBenchTieredTiny(t *testing.T) {
	m, err := benchTiered(1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.GridCells == 0 || m.TotalMs <= 0 || m.Margin <= 0 {
		t.Fatalf("implausible tiered metrics: %+v", m)
	}
	if m.AnalyticCells+m.ConfirmedCells != m.GridCells {
		t.Fatalf("analytic %d + confirmed %d != grid %d", m.AnalyticCells, m.ConfirmedCells, m.GridCells)
	}
	if m.ConfirmedCells == 0 || m.AnalyticCells <= m.ConfirmedCells {
		t.Fatalf("screen carried too little: %+v", m)
	}
}

// TestCompareGatesOnRegression pins the -compare contract: deltas print
// per metric, and only a regression beyond the gate trips the exit.
func TestCompareGatesOnRegression(t *testing.T) {
	oldRep := Report{
		Date:  "old",
		Emu:   Metrics{NsPerInst: 10},
		Cores: map[string]Metrics{"baseline": {NsPerInst: 100}, "flywheel": {NsPerInst: 200}},
		Suite: SuiteMetrics{MsPerJob: 5},
	}
	better := Report{
		Emu:   Metrics{NsPerInst: 9},
		Cores: map[string]Metrics{"baseline": {NsPerInst: 90}, "flywheel": {NsPerInst: 150}},
		Suite: SuiteMetrics{MsPerJob: 4},
	}
	var buf strings.Builder
	if compare(&buf, oldRep, better, 10) {
		t.Fatalf("improvement flagged as regression:\n%s", buf.String())
	}
	worse := better
	worse.Cores = map[string]Metrics{"baseline": {NsPerInst: 150}, "flywheel": {NsPerInst: 150}}
	buf.Reset()
	if !compare(&buf, oldRep, worse, 10) {
		t.Fatalf("50%% baseline regression not flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("regression marker missing:\n%s", buf.String())
	}
	// Report-only mode never gates.
	buf.Reset()
	if compare(&buf, oldRep, worse, 0) {
		t.Fatal("maxregress 0 must report without gating")
	}
}

// TestLoadReportRoundTrip exercises -compare's input path.
func TestLoadReportRoundTrip(t *testing.T) {
	rep := Report{Date: "x", Emu: Metrics{NsPerInst: 3}}
	enc, _ := json.Marshal(rep)
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Emu.NsPerInst != 3 || got.Date != "x" {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	if _, err := loadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	// CI runs -compare against the committed baseline; it must stay
	// readable as the report schema changes.
	base, err := loadReport(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Emu.NsPerInst <= 0 || base.Cores["flywheel"].NsPerInst <= 0 {
		t.Fatalf("committed baseline read incompletely: %+v", base)
	}
}

// TestBenchSuiteTiny drives the suite measurement end to end with a tiny
// budget.
func TestBenchSuiteTiny(t *testing.T) {
	m, err := benchSuite(500, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs == 0 || m.TotalMs <= 0 || m.JobsPerSec <= 0 {
		t.Fatalf("implausible suite metrics: %+v", m)
	}
	if m.DiskHits != 0 {
		t.Fatalf("disk hits without a store: %+v", m)
	}
}

// TestBenchSuiteWarmStore: the suite over a warm store performs zero
// simulations — every distinct configuration is a disk hit.
func TestBenchSuiteWarmStore(t *testing.T) {
	dir := t.TempDir()
	cold, err := benchSuite(500, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cold.SimRuns == 0 || cold.DiskHits != 0 {
		t.Fatalf("cold pass: %+v, want all sim runs", cold)
	}
	warm, err := benchSuite(500, dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SimRuns != 0 || warm.DiskHits != cold.SimRuns {
		t.Fatalf("warm pass: %+v, want %d disk hits and 0 sim runs", warm, cold.SimRuns)
	}
}
