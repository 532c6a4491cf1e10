package main

import (
	"fmt"
	"io"
	"strings"

	"flywheel/internal/cacti"
	"flywheel/internal/experiments"
	"flywheel/internal/lab"
	"flywheel/internal/stats"
	"flywheel/internal/workload"
)

// paperPass reproduces the paper as `experiments -fig all` does, from a
// fresh memo cache: 180 job requests, 140 simulations.
func paperPass(p *pass) error {
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			return err
		}
		if err := p.warm(w); err != nil {
			return err
		}
	}
	cache := lab.NewCache()
	opt := experiments.Options{
		Instructions: paperInsts, Node: cacti.Node130, Parallel: workers,
		Cache: cache, Progress: p.progress,
	}
	var out strings.Builder
	if err := p.begin(); err != nil {
		return err
	}
	if err := renderPaper(p, &out, opt); err != nil {
		return err
	}
	p.finish()
	return p.concludeJobs("paper", cache, out.String())
}

// renderPaper renders every table and figure in the order and format of
// `experiments -fig all`.
func renderPaper(p *pass, w io.Writer, opt experiments.Options) error {
	one := func(f func(experiments.Options) (*stats.Table, error)) func() ([]*stats.Table, error) {
		return func() ([]*stats.Table, error) {
			t, err := f(opt)
			return []*stats.Table{t}, err
		}
	}
	sweep := func() ([]*stats.Table, error) {
		d, err := experiments.Sweep(opt)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{d.Figure12(), d.Figure13(), d.Figure14(), d.Residency()}, nil
	}
	for _, t := range []*stats.Table{experiments.Figure1(), experiments.Table1(), experiments.Table2()} {
		fmt.Fprintln(w, t.String())
	}
	for _, f := range []struct {
		name string
		run  func() ([]*stats.Table, error)
	}{
		{"experiments.Figure2", one(experiments.Figure2)},
		{"experiments.Figure11", one(experiments.Figure11)},
		{"experiments.Sweep", sweep},
		{"experiments.Figure15", one(experiments.Figure15)},
	} {
		var tables []*stats.Table
		err := p.call(f.name, func() (err error) {
			tables, err = f.run()
			return err
		})
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Fprintln(w, t.String())
		}
	}
	return nil
}
