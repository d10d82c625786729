package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
)

// refCorpus is the prepared corpus loaded in process: the source of the
// workload vocabulary and of the reference answers.
type refCorpus struct {
	catalog  *flavor.Catalog
	analyzer *pairing.Analyzer
	store    *recipedb.Store
	v        *vocab
	check    *checker
}

func loadReference(prep string, w workload) (*refCorpus, error) {
	fcfg := flavor.DefaultConfig()
	fcfg.Seed = corpusSeed
	catalog, err := flavor.Build(fcfg)
	if err != nil {
		return nil, err
	}
	db, err := storage.Open(filepath.Join(prep, "db"), storage.Options{ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("opening prepared corpus: %w", err)
	}
	store, err := storage.LoadCorpus(db, catalog)
	db.Close()
	if err != nil {
		return nil, fmt.Errorf("loading prepared corpus: %w", err)
	}
	if store.Len() != w.CorpusRecipes {
		return nil, fmt.Errorf("prepared corpus holds %d recipes, workload %s expects %d", store.Len(), w.Name, w.CorpusRecipes)
	}
	ref := &refCorpus{catalog: catalog, analyzer: pairing.NewAnalyzer(catalog), store: store, v: newVocab(store), check: &checker{}}
	if w.Reference {
		if ref.check.ref, err = newReference(store, ref.analyzer, ref.v); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// e2eResult is one untraced run against the server binary.
type e2eResult struct {
	w                  workload
	setup              []float64 // seconds, one per start
	warm               *recorder
	closed             *recorder
	open               *recorder
	closedDur          time.Duration
	windows            []window // the closed loop, second by second
	clientShare        float64  // generator CPU / (generator + server) over both loops
	rss                float64
	liveStart, liveEnd int
}

func runReal(cfg config, prep, runDir string, ref *refCorpus) (res *e2eResult, err error) {
	res = &e2eResult{w: cfg.w}
	logPath := filepath.Join(runDir, "server.log")
	// No garbage collection of the generator's own set-up may overlap
	// the timed starts.
	runtime.GC()
	var p *serverProc
	for k := 0; k < setupBefore; k++ {
		if k > 0 {
			if err := p.stop(); err != nil {
				return nil, err
			}
		}
		if p, err = res.startTimed(cfg.w, prep, runDir, logPath); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			p.stop()
		}
	}()

	rn := newRunner(p.base, newGenerator(cfg.w.Deck, cfg.seed, ref.v), ref.check)
	defer rn.close()
	res.warm = rn.phase()
	rn.closedLoop(warmup, maxConns)

	h0, err := getHealth(rn.client, p.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(p.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	res.closed = rn.phase()
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		res.windows = sampleWindows(res.closed, p.pid(), stop)
	}()
	res.closedDur = rn.closedLoop(cfg.closed(), maxConns)
	close(stop)
	<-sampled
	res.open = rn.phase()
	rn.openLoop(cfg.w.Rate, cfg.open(), maxConns)
	cpu2, err := procCPU(p.pid())
	if err != nil {
		return nil, err
	}
	self := selfCPU() - self0
	h1, err := getHealth(rn.client, p.base)
	if err != nil {
		return nil, err
	}
	if res.rss, err = procHWM(p.pid()); err != nil {
		return nil, err
	}
	stopped = true
	if err := p.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w; log: %s", err, tail(logPath))
	}
	res.clientShare = self.Seconds() / (self + cpu2 - cpu0).Seconds()
	res.liveStart, res.liveEnd = h0.Recipes, h1.Recipes
	// The other starts come after the measured window, so the starts
	// span the run and a passing slowdown of the shared host moves fewer
	// of them.
	for len(res.setup) < setupStarts {
		if p, err = res.startTimed(cfg.w, prep, runDir, logPath); err != nil {
			return nil, err
		}
		if err := p.stop(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// startTimed starts a server on a fresh copy of the prepared corpus and
// records its set-up time.
func (r *e2eResult) startTimed(w workload, prep, runDir, logPath string) (*serverProc, error) {
	db := filepath.Join(runDir, fmt.Sprintf("db%d", len(r.setup)))
	if err := copyDir(filepath.Join(prep, "db"), db); err != nil {
		return nil, err
	}
	p, d, err := startServer(w, db, logPath)
	if err != nil {
		return nil, err
	}
	r.setup = append(r.setup, d.Seconds())
	return p, nil
}

func (r *e2eResult) drift() float64 {
	return float64(r.liveEnd-r.liveStart) / float64(r.liveStart)
}

func (r *e2eResult) correct() bool {
	return r.warm.failed+r.closed.failed+r.open.failed == 0 && math.Abs(r.drift()) <= driftBand
}

// classMetric splits a name like "light_p99_ms" into its class and
// percentile.
func classMetric(name string) (class, float64, bool) {
	for c := class(0); c < numClasses; c++ {
		switch name {
		case c.String() + "_p50_ms":
			return c, 50, true
		case c.String() + "_p99_ms":
			return c, 99, true
		}
	}
	return 0, 0, false
}

// value returns end-to-end metric name; absent reports a latency metric
// whose route class the open loop never completed.
func (r *e2eResult) value(name string) (v float64, n int, absent bool) {
	switch name {
	case "setup_s":
		return median(r.setup), len(r.setup), false
	case "goodput_rps":
		var rps []float64
		for _, w := range r.windows {
			rps = append(rps, float64(w.ok)/w.dur.Seconds())
		}
		return median(rps), int(r.closed.ok), false
	case "fail_ratio":
		att := r.closed.attempted + r.open.attempted
		return float64(r.closed.failed+r.open.failed) / float64(att), int(att), false
	case "cpu_ms_per_req":
		var per []float64
		for _, w := range r.windows {
			per = append(per, ms(w.cpu)/float64(w.ok))
		}
		return median(per), int(r.closed.ok), false
	case "rss_mb":
		return r.rss, 1, false
	}
	c, p, ok := classMetric(name)
	if !ok {
		panic("unknown metric " + name)
	}
	if !sendsClass(r.w, c) {
		return 0, 0, true
	}
	lat := summarize(r.open.classLatencies(c))
	return lat.p(p), len(lat), false
}

// report prints every end-to-end metric with its unit and sample count,
// then the run's validity checks.
func (r *e2eResult) report() {
	for _, m := range endToEnd {
		v, n, absent := r.value(m.Name)
		if absent {
			fmt.Printf("  %-16s absent: %s sends no %s requests\n", m.Name, r.w.Name, strings.Split(m.Name, "_")[0])
			continue
		}
		note := ""
		if _, p, ok := classMetric(m.Name); ok && p > 50 {
			if tp, ok := supportedTail(n); !ok || tp < p {
				note = fmt.Sprintf("  (under-sampled: %d samples support p%g at most)", n, tp)
			}
		}
		fmt.Printf("  %-16s %12.4f %-5s n=%d%s\n", m.Name, v, m.Unit, n, note)
	}
	var rps []float64
	for _, w := range r.windows {
		rps = append(rps, float64(w.ok)/w.dur.Seconds())
	}
	st := summarize(r.setup)
	fmt.Printf("  set-up over %d starts: min %.4f median %.4f max %.4f s\n", len(st), st.p(0), st.p(50), st.p(100))
	sw := summarize(rps)
	fmt.Printf("  closed-loop goodput over %d windows of up to 1 s: min %.1f median %.1f max %.1f\n", len(sw), sw.p(0), sw.p(50), sw.p(100))
	late := summarize(r.open.late)
	fmt.Printf("  validity: live_drift=%.5f (%d -> %d recipes), client_cpu_share=%.3f, late_ms.p99=%.3f (n=%d), torn_responses=%d, warm-up failures=%d\n",
		r.drift(), r.liveStart, r.liveEnd, r.clientShare, late.p(99), len(late), r.closed.torn+r.open.torn, r.warm.failed)
	for _, rec := range []*recorder{r.warm, r.closed, r.open} {
		for _, n := range rec.notes {
			fmt.Printf("  failure: %s\n", n)
		}
	}
}

// window is one second of the closed loop: its length, the requests
// that succeeded in it and the server CPU time it used. Capacity
// metrics are medians over windows, so a passing stall on the shared
// host moves one window instead of the whole figure.
type window struct {
	dur time.Duration
	ok  int64
	cpu time.Duration
}

// sampleWindows cuts the time until stop closes into one-second windows
// of rec's successes and process pid's CPU time. A trailing partial
// window is dropped unless it is the only one.
func sampleWindows(rec *recorder, pid int, stop chan struct{}) []window {
	type mark struct {
		at  time.Time
		ok  int64
		cpu time.Duration
	}
	snap := func() mark {
		cpu, _ := procCPU(pid)
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return mark{time.Now(), rec.ok, cpu}
	}
	var out []window
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	prev := snap()
	add := func() {
		cur := snap()
		if cur.ok > prev.ok {
			out = append(out, window{cur.at.Sub(prev.at), cur.ok - prev.ok, cur.cpu - prev.cpu})
		}
		prev = cur
	}
	for {
		select {
		case <-stop:
			if len(out) == 0 {
				add()
			}
			return out
		case <-tick.C:
			add()
		}
	}
}
