package main

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"flywheel/internal/sim"
)

// The references were captured by `go run . -write-refs testdata` and are
// compiled in, so a pass checks its outputs wherever it runs.
//
//go:embed testdata
var refFS embed.FS

// refStats are the simulated statistics a result is checked on. They stay
// meaningful when observables are renamed or cycle accounts are added.
type refStats struct {
	TimePS   int64
	Cycles   uint64
	Retired  uint64
	EnergyPJ float64
}

func statsOf(r sim.Result) refStats {
	return refStats{TimePS: r.TimePS, Cycles: r.Cycles, Retired: r.Retired, EnergyPJ: r.EnergyPJ}
}

// jobRefs maps lab.Job keys to their reference statistics.
type jobRefs map[string]refStats

// check returns "" when r matches the reference for key, else the mismatch.
func (refs jobRefs) check(key string, r sim.Result) string {
	want, ok := refs[key]
	if !ok {
		return "no reference for job " + key
	}
	if got := statsOf(r); got != want {
		return fmt.Sprintf("job %s: got %+v, want %+v", key, got, want)
	}
	return ""
}

func loadText(name string) (string, error) {
	b, err := refFS.ReadFile("testdata/" + name)
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	return string(b), nil
}

// loadJobRefs reads testdata/<wl>_jobs.tsv: key, TimePS, Cycles, Retired
// and EnergyPJ per line, tab-separated.
func loadJobRefs(wl string) (jobRefs, error) {
	text, err := loadText(wl + "_jobs.tsv")
	if err != nil {
		return nil, err
	}
	refs := jobRefs{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("reference %s: bad line %q", wl, sc.Text())
		}
		var s refStats
		var errs [4]error
		s.TimePS, errs[0] = strconv.ParseInt(f[1], 10, 64)
		s.Cycles, errs[1] = strconv.ParseUint(f[2], 10, 64)
		s.Retired, errs[2] = strconv.ParseUint(f[3], 10, 64)
		s.EnergyPJ, errs[3] = strconv.ParseFloat(f[4], 64)
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("reference %s: %w", wl, e)
			}
		}
		refs[f[0]] = s
	}
	return refs, nil
}

func writeText(dir, name, text string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644)
}

func writeJobRefs(dir, wl string, results map[string]sim.Result) error {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		s := statsOf(results[k])
		fmt.Fprintf(&b, "%s\t%d\t%d\t%d\t%s\n", k, s.TimePS, s.Cycles, s.Retired,
			strconv.FormatFloat(s.EnergyPJ, 'g', -1, 64))
	}
	return writeText(dir, wl+"_jobs.tsv", b.String())
}

// writeReferences runs each workload once in this process and writes its
// references into dir.
func writeReferences(dir string) error {
	tmp, err := os.MkdirTemp(dir, "refs-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, wl := range workloads {
		p := newPass(1, false, tmp, time.Now())
		p.capture = dir
		if err := runWorkload(p, wl); err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s references\n", wl)
	}
	return nil
}
