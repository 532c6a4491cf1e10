package main

import (
	"bytes"
	"strings"
	"testing"
)

// tiny keeps command tests fast: one small profile, two boosts, 2k
// instructions per run.
var tiny = []string{
	"-ilp", "1", "-entropy", "0", "-mem", "4", "-code", "1", "-passes", "1",
	"-fe", "0,50", "-n", "2000",
}

func TestRunTables(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(tiny, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Design space", "Pareto frontier", "speedup", "energy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestRunFrontierOnly(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-frontier"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "Design space") {
		t.Error("-frontier still printed the full grid table")
	}
	if !strings.Contains(out.String(), "Pareto frontier") {
		t.Error("output lacks the frontier table")
	}
}

func TestRunCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-csv"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "profile,arch,node,") {
		t.Errorf("CSV header %q", lines[0])
	}
	// 1 profile × flywheel × 2 FE × 1 BE × 1 node = 2 data rows.
	if len(lines) != 3 {
		t.Errorf("CSV has %d lines, want 3", len(lines))
	}
}

func TestRunMarkdown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-md"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "|") {
		t.Error("markdown output lacks table pipes")
	}
}

func TestInstructionsAliasMatchesN(t *testing.T) {
	var a, b, errb bytes.Buffer
	if code := run(tiny, &a, &errb); code != 0 {
		t.Fatalf("-n run: exit %d, stderr: %s", code, errb.String())
	}
	alias := append([]string{}, tiny...)
	alias[len(alias)-2] = "-instructions"
	if code := run(alias, &b, &errb); code != 0 {
		t.Fatalf("-instructions run: exit %d, stderr: %s", code, errb.String())
	}
	if a.String() != b.String() {
		t.Error("-n and -instructions produce different output")
	}
}

func TestRunBadFlagValues(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-ilp", "abc"},
		{"-entropy", "x"},
		{"-arch", "vliw"},
		{"-arch", ""},
		{"-node", "0.42"},
		{"-node", ""},
		{"-fe", ""},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestRunRejectsOversizedGrid(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-ilp", "1,2,3,4,5,6", "-entropy", "0,0.2,0.4,0.6,0.8,1",
		"-fp", "0,0.5", "-mem", "4,8,16,32", "-stride", "0,0.5,1",
		"-fe", "0,25,50,75,100",
	}
	if code := run(args, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 for an oversized grid", code)
	}
	if !strings.Contains(errb.String(), "grid") {
		t.Errorf("stderr %q lacks the grid-size diagnostic", errb.String())
	}
}

func TestRunInvalidProfile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-ilp", "99", "-n", "2000"}, &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1 for an out-of-range profile", code)
	}
}

func TestRunTierAnalytic(t *testing.T) {
	args := append([]string{
		"-tier", "analytic", "-fe", "0,25,50,75,100", "-be", "0,50,100",
	}, tiny[:len(tiny)-2]...) // drop tiny's -fe pair, keep profile knobs
	args = append(args, "-n", "2000")
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "screened analytically") {
		t.Errorf("stderr lacks the tier summary: %s", errb.String())
	}
	if !strings.Contains(out.String(), "Pareto frontier") {
		t.Error("output lacks the confirmed frontier table")
	}
}

func TestRunTierAnalyticCSV(t *testing.T) {
	args := append([]string{"-csv", "-tier", "analytic", "-fe", "0,25,50,75,100"}, tiny[2:]...)
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if !strings.Contains(lines[0], "pred_speedup") || !strings.Contains(lines[0], "pred_energy_ratio") {
		t.Errorf("tiered CSV header lacks prediction columns: %q", lines[0])
	}
	if len(lines) < 2 {
		t.Error("tiered CSV has no confirmed rows")
	}
}

func TestRunTierAuto(t *testing.T) {
	// Tiny grid: auto must choose the exact tier (calibration would cost
	// more than the sweep).
	var out, errb bytes.Buffer
	if code := run(append([]string{"-tier", "auto"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-> exact") {
		t.Errorf("auto tier did not fall back to exact on a tiny grid: %s", errb.String())
	}
}

func TestRunTierRejectsUnknown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-tier", "psychic"}, tiny...), &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRunRejectsSampledTier: the sampled tier and its flags are
// gone; asking for them is a usage error, not a silently exact run.
func TestRunRejectsSampledTier(t *testing.T) {
	for _, extra := range [][]string{
		{"-tier", "sampled"},
		{"-sample-period", "60000"},
	} {
		var out, errb bytes.Buffer
		if code := run(append(extra, tiny...), &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", extra, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote output despite the usage error: %q", extra, out.String())
		}
	}
}
