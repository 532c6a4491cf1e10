package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
	"flywheel/internal/sim"
	"flywheel/internal/workload"
)

// serveUniverse is the fixed set of paper-shaped jobs the serve workload
// draws from: every paper workload at two nodes, on the baseline and on
// both dual-clock cores at three front-end boosts, 140 jobs.
func serveUniverse() []lab.Job {
	var jobs []lab.Job
	for _, name := range workload.Names() {
		for _, node := range []cacti.Node{cacti.Node130, cacti.Node90} {
			job := func(arch sim.Arch, fe, be int) lab.Job {
				return lab.Job{
					Workload: name, Arch: arch, Node: node,
					FEBoostPct: fe, BEBoostPct: be, MaxInstructions: serveInsts,
					Predictor: "gshare", Prefetcher: "none",
				}
			}
			jobs = append(jobs, job(sim.ArchBaseline, 0, 0))
			for _, arch := range []sim.Arch{sim.ArchFlywheel, sim.ArchRegAlloc} {
				for _, fe := range []int{0, 50, 100} {
					jobs = append(jobs, job(arch, fe, 50))
				}
			}
		}
	}
	return jobs
}

// drawRequests draws the pass's requests from the seed: 1-4 distinct jobs
// each, by a Zipf law over a seeded ranking of the universe.
func drawRequests(seed uint64, universe []lab.Job, n int) [][]lab.Job {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	rank := r.Perm(len(universe))
	z := rand.NewZipf(r, 1.1, 1, uint64(len(universe)-1))
	reqs := make([][]lab.Job, n)
	for i := range reqs {
		n, picked := 1+r.IntN(4), map[int]bool{}
		for len(picked) < n {
			picked[rank[z.Uint64()]] = true
		}
		idx := make([]int, 0, len(picked))
		for j := range picked {
			idx = append(idx, j)
		}
		sort.Ints(idx)
		for _, j := range idx {
			reqs[i] = append(reqs[i], universe[j])
		}
	}
	return reqs
}

// servePass runs labd over a store that holds half of the universe and
// drives it with a closed loop of two clients.
func servePass(p *pass) error {
	universe := serveUniverse()
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			return err
		}
		if err := p.warm(w); err != nil {
			return err
		}
	}
	if p.capture != "" {
		res, err := lab.Run(universe, lab.Options{Workers: workers})
		if err != nil {
			return err
		}
		byKey := map[string]sim.Result{}
		for i, j := range universe {
			byKey[j.Key()] = res[i]
		}
		return writeJobRefs(p.capture, "serve", byKey)
	}
	refs, err := loadJobRefs("serve")
	if err != nil {
		return err
	}

	// Pre-populate the store with every other job of the universe, then
	// empty the host caches that pre-population filled: the measured part
	// starts with the store half full and nothing else warm.
	st, err := store.Open(p.tmp + "/store")
	if err != nil {
		return err
	}
	var half []lab.Job
	for i := 0; i < len(universe); i += 2 {
		half = append(half, universe[i])
	}
	res, err := lab.Run(half, lab.Options{Workers: workers})
	if err != nil {
		return err
	}
	for i, j := range half {
		if err := st.Put(j.Key(), res[i]); err != nil {
			return err
		}
	}
	sim.ResetTraceCache()
	sim.ResetSnapshotCache()
	reqs := drawRequests(p.seed, universe, serveRequests)

	cache := lab.NewCacheWithStore(st)
	client, stop, err := startLabd(cache, &http.Transport{MaxIdleConnsPerHost: workers})
	if err != nil {
		return err
	}
	defer stop()
	storeBefore := st.Stats()

	if err := p.begin(); err != nil {
		return err
	}
	lat, err := closedLoop(p, client, reqs, refs)
	if err != nil {
		return err
	}
	p.finish()
	p.out.Ops, p.out.LatMS = len(reqs), lat
	if !p.traced {
		return nil
	}

	ls, ts, sa := cache.Stats(), sim.TraceCacheStats(), st.Stats()
	p.storeHits, p.storePuts = sa.Hits-storeBefore.Hits, sa.Puts-storeBefore.Puts
	p.prepopulated = map[string]bool{}
	for _, j := range half {
		p.prepopulated[j.Key()] = true
	}
	results := map[string]sim.Result{}
	var jobs []lab.Job
	for _, req := range reqs {
		for _, j := range req {
			k := j.Key()
			if _, ok := results[k]; !ok {
				r, err := cache.Do(j)
				if err != nil {
					return err
				}
				results[k] = r
				jobs = append(jobs, j)
			}
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Key() < jobs[b].Key() })
	return p.probe(jobs, results, cache, ls, ts)
}

// startLabd serves cache over a loopback listener and returns a client for
// it and a stop function that shuts the server down and waits for it.
func startLabd(cache *lab.Cache, rt http.RoundTripper) (*labd.Client, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := labd.NewHTTPServer(labd.NewServer(cache).Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := labd.NewClient("http://" + ln.Addr().String())
	client.HTTPClient = &http.Client{Transport: rt}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a failed drain leaves nothing to clean up in a pass that is ending
		<-served
		if t, ok := rt.(interface{ CloseIdleConnections() }); ok {
			t.CloseIdleConnections()
		}
	}
	return client, stop, nil
}

// closedLoop sends the requests from two clients, each with one request
// outstanding, and returns each request's latency from send until its last
// NDJSON line is decoded. A request whose reply errs or disagrees with the
// reference counts as failed.
func closedLoop(p *pass, client *labd.Client, reqs [][]lab.Job, refs jobRefs) ([]float64, error) {
	lat := make([]float64, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				var lines []labd.SweepLine
				var err error
				t0 := time.Now()
				p.tr.span("labd.Client.Sweep", func() { lines, err = client.Sweep(labd.SweepRequest{Jobs: reqs[i]}) })
				lat[i] = ms(time.Since(t0))
				if err != nil && len(lines) != len(reqs[i]) {
					errs[c] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				if msg := checkReply(reqs[i], lines, err, refs); msg != "" {
					p.fail(1, "serve request %d: %s", i, msg)
				}
			}
		}()
	}
	wg.Wait()
	return lat, errors.Join(errs...)
}

func checkReply(jobs []lab.Job, lines []labd.SweepLine, err error, refs jobRefs) string {
	if err != nil {
		return err.Error()
	}
	for i, l := range lines {
		if l.Result == nil {
			return "no result for " + jobs[i].Key()
		}
		if msg := refs.check(jobs[i].Key(), *l.Result); msg != "" {
			return msg
		}
	}
	return ""
}

// countingTransport counts the response body bytes it delivers.
type countingTransport struct {
	rt    http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

func (t *countingTransport) CloseIdleConnections() {
	if c, ok := t.rt.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	b.n.Add(int64(n))
	return n, err
}
