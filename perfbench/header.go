package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// header identifies a run. Two runs are comparable only when their headers
// agree in everything but Commit.
type header struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Budget     string `json:"budget"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	Commit     string `json:"commit"`
}

// budgets describes each workload's fixed input size.
var budgets = map[string]string{
	"paper": fmt.Sprintf("experiments -fig all: %d insts/job, node 0.13um, %d lab workers, default frontend",
		paperInsts, workers),
	"explore": fmt.Sprintf("tiered frontier: archs flywheel,regalloc x pred gshare,tage x pf none,delta x chase 0,0.5 x FE 0,50,100 x BE 50 over ILP 1,4,6 x entropy 0,1, 512 KiB arena at 64 B stride; %d insts/job, %d lab workers",
		exploreInsts, workers),
	"serve": fmt.Sprintf("labd closed loop: %d clients, %d requests/pass of 1-4 jobs, Zipf 1.1 over %d jobs at %d insts, store half pre-populated",
		workers, serveRequests, len(serveUniverse()), serveInsts),
}

// newHeader describes a run of the code in the working directory.
func newHeader(wl string, seed uint64, seconds int, trace bool) (header, error) {
	d, err := sourceDigest(".")
	if err != nil {
		return header{}, err
	}
	h := header{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
		Budget:     budgets[wl],
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: "src-" + d,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h, nil
}

// sourceDigest hashes the Go sources and go.mod of the code under test (the
// repository minus this benchmark), standing in for a commit id where the
// checkout is not a git repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// savedRun is a run's output as written to a file: its header line and its
// final result line.
type savedRun struct {
	Header header
	Result result
}

func readRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var run savedRun
	var last string
	sawHeader := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, `{"header":`) {
			var w struct{ Header header }
			if err := json.Unmarshal([]byte(line), &w); err != nil {
				return savedRun{}, fmt.Errorf("%s: header: %w", path, err)
			}
			run.Header, sawHeader = w.Header, true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, fmt.Errorf("%s: %w", path, err)
	}
	if !sawHeader {
		return savedRun{}, fmt.Errorf("%s: no run header", path)
	}
	if err := json.Unmarshal([]byte(last), &run.Result); err != nil {
		return savedRun{}, fmt.Errorf("%s: result line: %w", path, err)
	}
	return run, nil
}

// headerDiff lists the fields, other than Commit, in which a and b differ.
func headerDiff(a, b header) []string {
	var diff []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Tag.Get("json")
		if name == "commit" {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	return diff
}

// compareRuns prints each metric of two saved runs side by side. It refuses
// (exit 3) when the headers differ in anything but the commit, since then a
// difference in the numbers need not come from the code.
func compareRuns(w io.Writer, oldPath, newPath string) int {
	a, err := readRun(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := readRun(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if diff := headerDiff(a.Header, b.Header); len(diff) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare runs whose headers differ in more than the commit:\n  %s\n",
			strings.Join(diff, "\n  "))
		return 3
	}
	fmt.Fprintf(w, "%s seed %d: %s -> %s\n", a.Header.Workload, a.Header.Seed, a.Header.Commit, b.Header.Commit)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o := a.Result.Metrics[n]
		nv, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s -> missing\n", n, o.Value, o.Unit)
			continue
		}
		ratio := "n/a"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%.4f", nv.Value/o.Value)
		}
		fmt.Fprintf(w, "  %-32s %14.6g -> %14.6g %-6s new/old %s\n", n, o.Value, nv.Value, o.Unit, ratio)
	}
	fmt.Fprintf(w, "  failed: %d/%d -> %d/%d\n", a.Result.Failed, a.Result.Attempted, b.Result.Failed, b.Result.Attempted)
	return 0
}
