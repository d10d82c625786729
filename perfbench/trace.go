package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/httpmw"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/search"
	"culinary/internal/server"
	"culinary/internal/storage"
)

// The traced run composes cmd/server in process from its packages, with
// cmd/server's default settings and the workload's flags, and records
// spans from outside the program: around the httpmw traffic stack,
// around Server.Handler(), around the storage backend, and around
// replays of each request's layer calls (BuildCuisine, pairing.Compare,
// Engine.RunContext, Index.SearchVersion, ...) made right after the
// handler returns. Counts come from the layers' public stats functions
// as deltas over the traced window.

// span is one timed interval.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer holds the spans of the traced window. Nothing is recorded
// while on is false.
type tracer struct {
	on atomic.Bool

	mu            sync.Mutex
	admit         []float64 // us: traffic stack span minus the handler span
	handler       [numRoutes][]float64
	self          [numRoutes][]float64
	bytes         [numRoutes][]float64
	buildCuisine  []float64 // ms
	categoryUsage []float64 // ms
	regionPage    []float64 // us
	queryExec     []float64 // us
	searchQuery   []float64 // us
	searchApply   []float64 // us
	compare       []float64 // ms
	recipeScore   []float64 // us
	commit        []span    // storage backend calls
	commitKeys    []float64
	recordBytes   int64
	writes        []span // mutation handler spans
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// time runs fn, appends its duration in the given unit to *dst and
// returns the duration.
func (t *tracer) time(dst *[]float64, unit time.Duration, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.mu.Lock()
	*dst = append(*dst, float64(d)/float64(unit))
	t.mu.Unlock()
	return d
}

// timedBackend is the storage engine behind a recipedb.BatchBackend
// that times every call.
type timedBackend struct {
	db *storage.Store
	t  *tracer
}

func (b *timedBackend) note(t0 time.Time, keys int, n int) {
	if !b.t.on.Load() {
		return
	}
	end := time.Now()
	b.t.mu.Lock()
	b.t.commit = append(b.t.commit, span{t0, end})
	b.t.commitKeys = append(b.t.commitKeys, float64(keys))
	b.t.recordBytes += int64(n)
	b.t.mu.Unlock()
}

func (b *timedBackend) Put(key string, value []byte) error {
	t0 := time.Now()
	err := b.db.Put(key, value)
	b.note(t0, 1, len(key)+len(value))
	return err
}

func (b *timedBackend) Delete(key string) error {
	t0 := time.Now()
	err := b.db.Delete(key)
	b.note(t0, 1, len(key))
	return err
}

func (b *timedBackend) WriteBatch(keys []string, values [][]byte, tombstones []bool) []error {
	t0 := time.Now()
	errs := b.db.WriteBatch(keys, values, tombstones)
	n := 0
	for i := range keys {
		n += len(keys[i]) + len(values[i])
	}
	b.note(t0, len(keys), n)
	return errs
}

// spanKey carries a request's span record from the traffic-stack
// wrapper to the handler wrapper.
type spanKey struct{}

// reqSpan is what the inner wrapper spent inside the outer span: the
// handler and the replays made after it.
type reqSpan struct{ handler, replayed time.Duration }

// outer times the httpmw traffic stack plus everything inside it; the
// admission cost is that span minus the handler and the replays.
func (t *tracer) outer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || routeOf(r) == rOther {
			next.ServeHTTP(w, r)
			return
		}
		rs := &reqSpan{}
		t0 := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, rs)))
		d := time.Since(t0)
		t.mu.Lock()
		t.admit = append(t.admit, us(d-rs.handler-rs.replayed))
		t.mu.Unlock()
	})
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// inner times Server.Handler() and then replays the request's layer
// calls; the handler's self time is its span minus the replayed spans.
func (t *tracer) inner(next http.Handler, replay func(route, *http.Request, []byte) time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs, _ := r.Context().Value(spanKey{}).(*reqSpan)
		if !t.on.Load() || rs == nil {
			next.ServeHTTP(w, r)
			return
		}
		rt := routeOf(r)
		var body []byte
		if rt == rQuery {
			var err error
			if body, err = io.ReadAll(r.Body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		rs.handler = end.Sub(t0)
		rs.replayed = replay(rt, r, body)
		t.mu.Lock()
		t.handler[rt] = append(t.handler[rt], ms(rs.handler))
		t.self[rt] = append(t.self[rt], ms(max(0, rs.handler-rs.replayed)))
		t.bytes[rt] = append(t.bytes[rt], float64(cw.n))
		if classOf(rt) == cWrite {
			t.writes = append(t.writes, span{t0, end})
		}
		t.mu.Unlock()
	})
}

// replayer repeats a request's calls into the layers below the handler
// and times them.
type replayer struct {
	t        *tracer
	store    *recipedb.Store
	analyzer *pairing.Analyzer
	engine   *query.Engine // benchmark-owned, with its own result cache
	index    *search.Index // the server's live index
}

func (rp *replayer) replay(rt route, r *http.Request, body []byte) time.Duration {
	t := rp.t
	q := r.URL.Query()
	region, regionErr := recipedb.ParseRegion(pathSegment(r, 2))
	var total time.Duration
	switch rt {
	case rRegions:
		for _, reg := range recipedb.MajorRegions() {
			total += t.time(&t.buildCuisine, time.Millisecond, func() { rp.store.BuildCuisine(reg) })
		}
	case rRegion:
		if regionErr == nil {
			total += t.time(&t.buildCuisine, time.Millisecond, func() { rp.store.BuildCuisine(region) })
			total += t.time(&t.categoryUsage, time.Millisecond, func() { rp.store.CategoryUsage(region) })
		}
	case rPairing:
		model := pairing.RandomModel
		if m, err := pairing.ParseModel(q.Get("model")); err == nil {
			model = m
		}
		if regionErr == nil {
			var c *recipedb.Cuisine
			total += t.time(&t.buildCuisine, time.Millisecond, func() { c = rp.store.BuildCuisine(region) })
			total += t.time(&t.compare, time.Millisecond, func() {
				pairing.Compare(rp.analyzer, rp.store, c, model, nullRecipes, rng.New(corpusSeed).Split(uint64(region)))
			})
		}
	case rRecipesPage:
		reg, err := recipedb.ParseRegion(q.Get("region"))
		offset, _ := strconv.Atoi(q.Get("offset"))
		limit, _ := strconv.Atoi(q.Get("limit"))
		if err == nil {
			total += t.time(&t.regionPage, time.Microsecond, func() {
				skipped, kept := 0, 0
				rp.store.ForEachInRegion(reg, func(*recipedb.Recipe) {
					if skipped < offset {
						skipped++
					} else if kept < limit {
						kept++
					}
				})
			})
		}
	case rRecipeGet:
		id, err := strconv.Atoi(pathSegment(r, 2))
		if err == nil && id >= 0 && id < rp.store.Slots() {
			rec := rp.store.Recipe(id)
			total += t.time(&t.recipeScore, time.Microsecond, func() { rp.analyzer.RecipeScore(rec.Ingredients) })
		}
	case rSearch:
		opts := search.Options{Fuzzy: q.Get("fuzzy") == "1"}
		if strings.EqualFold(q.Get("mode"), "all") {
			opts.Mode = search.ModeAll
		}
		opts.Limit, _ = strconv.Atoi(q.Get("limit"))
		total += t.time(&t.searchQuery, time.Microsecond, func() { rp.index.SearchVersion(q.Get("q"), opts) })
	case rQuery:
		var req struct {
			Q string `json:"q"`
		}
		if json.Unmarshal(body, &req) == nil {
			total += t.time(&t.queryExec, time.Microsecond, func() { rp.engine.RunContext(context.Background(), req.Q) })
		}
	}
	return total
}

// pathSegment returns the i-th segment of the request path ("api" is 0).
func pathSegment(r *http.Request, i int) string {
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if i < len(seg) {
		return seg[i]
	}
	return ""
}

// counters is a snapshot of every public stats function the traced run
// reads; metrics take the difference of two snapshots.
type counters struct {
	at      time.Time
	health  health
	batch   recipedb.BatchStats
	db      storage.Stats
	comp    storage.CompactionStats
	traffic httpmw.TrafficStats
	mem     runtime.MemStats
	pauses  *metrics.Float64Histogram
	cpu     time.Duration
}

func snapshot(client *http.Client, base string, store *recipedb.Store, db *storage.Store, traffic *httpmw.Traffic) (counters, error) {
	c := counters{at: time.Now(), batch: store.BatchStats(), db: db.Stats(), comp: db.CompactionStats(), traffic: traffic.Stats(), cpu: selfCPU()}
	runtime.ReadMemStats(&c.mem)
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		c.pauses = s[0].Value.Float64Histogram()
	}
	var err error
	c.health, err = getHealth(client, base)
	return c, err
}

// pauseP99 returns the p99 GC pause in ms between two histogram
// snapshots, taking each bucket's upper bound.
func pauseP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	need := (total*99 + 99) / 100
	var cum uint64
	for i, n := range d {
		cum += n
		if cum >= need {
			hi := b.Buckets[i+1]
			if hi > 1e9 {
				hi = b.Buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}

type layerResult struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
}

func runTraced(cfg config, prep, runDir string, ref *refCorpus, e2e *e2eResult) (*layerResult, error) {
	w := cfg.w
	dbDir := filepath.Join(runDir, "traced-db")
	if err := copyDir(filepath.Join(prep, "db"), dbDir); err != nil {
		return nil, err
	}
	// cmd/server's storage defaults.
	t0 := time.Now()
	db, err := storage.Open(dbDir, storage.Options{
		Shards: 64, Mmap: true, ReadCacheBytes: 32 << 20,
		CompactInterval: time.Minute, CompactGarbageRatio: 0.5,
		ScrubInterval: 30 * time.Second, WriteProbeInterval: 5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	store, err := storage.LoadCorpus(db, ref.catalog)
	if err != nil {
		return nil, err
	}
	loadCorpus := time.Since(t0)

	tr := &tracer{}
	store.SetBackend(&timedBackend{db: db, t: tr})
	// A benchmark-owned index, fed by its own subscriber, times
	// Index.ApplyBatch; nothing writes before the subscription, so it
	// starts at the state it was built from.
	idx := search.Build(store)
	store.SubscribeBatch(nil, func(ms []recipedb.Mutation) {
		if !tr.on.Load() {
			idx.ApplyBatch(ms)
			return
		}
		tr.time(&tr.searchApply, time.Microsecond, func() { idx.ApplyBatch(ms) })
	})

	logf, err := os.Create(filepath.Join(runDir, "traced-server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	srv, err := server.New(server.Config{
		Store: store, Analyzer: ref.analyzer, NullRecipes: nullRecipes, Seed: corpusSeed,
		Logger: log.New(logf, "server: ", log.LstdFlags), DB: db,
		ResultCacheBytes:           query.DefaultResultCacheBytes,
		ClassifierRebuildInterval:  2 * time.Second,
		RecommenderRebuildInterval: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	traffic := httpmw.NewTraffic(httpmw.Config{
		ReadRPS: 1e6, ReadBurst: 2e6, MutationRPS: 1e6, MutationBurst: 2e6,
		IsMutation: func(r *http.Request) bool {
			return r.Method == http.MethodDelete || (r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/api/recipes"))
		},
		Exempt:      func(r *http.Request) bool { return r.URL.Path == "/api/health" },
		MaxInFlight: 64, RetryAfter: time.Second, MaxBodyBytes: 1 << 20, RequestTimeout: 30 * time.Second,
	})
	engine := query.NewEngine(store, ref.analyzer)
	engine.EnableResultCache(query.DefaultResultCacheBytes)
	rp := &replayer{t: tr, store: store, analyzer: ref.analyzer, engine: engine, index: srv.Index()}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: tr.outer(traffic.Wrap(tr.inner(srv.Handler(), rp.replay))), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-serveErr
	}()
	base := "http://" + ln.Addr().String()

	rn := newRunner(base, newGenerator(w.Deck, cfg.seed, ref.v), ref.check)
	defer rn.close()
	warm := rn.phase()
	rn.closedLoop(warmup, maxConns)
	untraced := rn.phase()
	untracedDur := rn.closedLoop(cfg.closed()/2, maxConns)

	before, err := snapshot(rn.client, base, store, db, traffic)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	traced := rn.phase()
	tracedDur := rn.closedLoop(cfg.closed()/2, maxConns)
	open := rn.phase()
	rn.openLoop(w.Rate, cfg.open(), maxConns)
	tr.on.Store(false)
	after, err := snapshot(rn.client, base, store, db, traffic)
	if err != nil {
		return nil, err
	}

	res := &layerResult{
		attempted: traced.attempted + open.attempted,
		failed:    traced.failed + open.failed,
		values:    map[string]float64{},
	}
	drift := float64(after.health.Recipes-before.health.Recipes) / float64(before.health.Recipes)
	res.correct = warm.failed+untraced.failed+res.failed == 0 && drift <= driftBand && drift >= -driftBand
	for _, rec := range []*recorder{warm, untraced, traced, open} {
		for _, n := range rec.notes {
			fmt.Printf("  traced failure: %s\n", n)
		}
	}
	v := res.values
	set := func(name string, x float64) { v[name] = x }
	set("httpmw.admit_us.p50", median(tr.admit))
	tb, ta := before.traffic, after.traffic
	set("httpmw.rejections", float64(ta.Rejected429+ta.Shed503+ta.Rejected413-tb.Rejected429-tb.Shed503-tb.Rejected413))
	for rt := route(0); rt < numRoutes; rt++ {
		h := summarize(tr.handler[rt])
		set("server.handler_ms."+rt.String()+".p50", h.p(50))
		set("server.handler_ms."+rt.String()+".p99", h.p(99))
		set("server.self_ms."+rt.String()+".p50", median(tr.self[rt]))
		set("server.resp_bytes."+rt.String(), median(tr.bytes[rt]))
	}
	set("server.torn_responses", float64(traced.torn+open.torn))
	set("recipedb.build_cuisine_ms.p50", median(tr.buildCuisine))
	set("recipedb.category_usage_ms.p50", median(tr.categoryUsage))
	set("recipedb.region_page_us.p50", median(tr.regionPage))
	set("recipedb.ops_per_batch", ratio(float64(after.batch.Ops-before.batch.Ops), float64(after.batch.Batches-before.batch.Batches)))
	set("recipedb.write_self_ms.p50", median(writeSelf(tr.writes, tr.commit)))
	set("recipedb.live_drift", drift)
	set("query.exec_us.p50", summarize(tr.queryExec).p(50))
	set("query.exec_us.p99", summarize(tr.queryExec).p(99))
	hits := float64(after.health.ResultCache.Hits - before.health.ResultCache.Hits)
	misses := float64(after.health.ResultCache.Misses - before.health.ResultCache.Misses)
	set("query.result_cache_hit_ratio", ratio(hits, hits+misses))
	set("query.scanned_per_row", ratio(float64(traced.scanned+open.scanned), float64(traced.rows+open.rows)))
	set("search.query_us.p50", summarize(tr.searchQuery).p(50))
	set("search.query_us.p99", summarize(tr.searchQuery).p(99))
	set("search.apply_us.p50", median(tr.searchApply))
	set("pairing.compare_ms.p50", summarize(tr.compare).p(50))
	set("pairing.compare_ms.p99", summarize(tr.compare).p(99))
	set("pairing.recipe_score_us.p50", median(tr.recipeScore))
	commits := make([]float64, len(tr.commit))
	for i, s := range tr.commit {
		commits[i] = ms(s.dur())
	}
	set("storage.group_commit_ms.p50", summarize(commits).p(50))
	set("storage.group_commit_ms.p99", summarize(commits).p(99))
	set("storage.keys_per_group", mean(tr.commitKeys))
	reclaimed := float64(after.comp.BytesReclaimed - before.comp.BytesReclaimed)
	appended := float64(after.db.LiveBytes+after.db.DeadBytes-before.db.LiveBytes-before.db.DeadBytes) + reclaimed
	set("storage.write_amp", ratio(appended, float64(tr.recordBytes)))
	set("storage.compaction_runs", float64(after.comp.Runs-before.comp.Runs))
	set("storage.compaction_bytes", reclaimed)
	set("storage.load_corpus_s", loadCorpus.Seconds())
	cpu := after.cpu - before.cpu
	for _, model := range []string{"classifier", "recommender"} {
		a, b := after.health.Derived[model], before.health.Derived[model]
		set("derived."+model+".rebuilds", float64(a.Rebuilds-b.Rebuilds))
		set("derived."+model+".build_cpu_share", ratio(float64(a.TotalBuildNs-b.TotalBuildNs), float64(cpu)))
	}
	reqs := float64(res.attempted)
	set("runtime.alloc_bytes_per_req", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), reqs))
	set("runtime.allocs_per_req", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), reqs))
	set("runtime.gc_pause_ms.p99", pauseP99(before.pauses, after.pauses))
	set("bench.client_cpu_share", e2e.clientShare)
	set("bench.late_ms.p99", summarize(e2e.open.late).p(99))
	untracedRPS := float64(untraced.ok) / untracedDur.Seconds()
	tracedRPS := float64(traced.ok) / tracedDur.Seconds()
	set("bench.trace_overhead", 1-tracedRPS/untracedRPS)

	fmt.Printf("  traced run: goodput %.1f 1/s traced vs %.1f 1/s untraced in process (n=%d, %d), load_corpus %.3f s, %d traced requests over %.1f s\n",
		tracedRPS, untracedRPS, traced.ok, untraced.ok, loadCorpus.Seconds(), res.attempted, after.at.Sub(before.at).Seconds())
	for _, l := range layerSpecs() {
		fmt.Printf("  %-44s %14.4f %-10s moves %s\n", l.Name, v[l.Name], l.Unit, l.Moves)
	}
	if err := serveStopped(serveErr); err != nil {
		return nil, err
	}
	return res, nil
}

// serveStopped reports a server that stopped serving before the run
// ended.
func serveStopped(serveErr chan error) error {
	select {
	case err := <-serveErr:
		serveErr <- err
		return fmt.Errorf("traced server stopped: %w", err)
	default:
		return nil
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSelf returns, per mutation handler span, its duration minus the
// part of it storage backend calls cover, in ms.
func writeSelf(writes, commits []span) []float64 {
	out := make([]float64, len(writes))
	for i, w := range writes {
		covered := time.Duration(0)
		for _, c := range commits {
			lo, hi := c.start, c.end
			if lo.Before(w.start) {
				lo = w.start
			}
			if hi.After(w.end) {
				hi = w.end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
			}
		}
		out[i] = ms(w.dur() - covered)
	}
	return out
}
