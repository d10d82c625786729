package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/synth"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := supportedTail(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10})
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}} {
		if got := s.p(tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := summarize(nil).p(50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

var (
	testVocabOnce sync.Once
	testVocab     *vocab
)

// smallVocab harvests a vocabulary from a small generated corpus.
func smallVocab(t *testing.T) *vocab {
	t.Helper()
	testVocabOnce.Do(func() {
		fcfg := flavor.DefaultConfig()
		fcfg.Seed = corpusSeed
		catalog, err := flavor.Build(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := synth.DefaultConfig()
		scfg.Seed = corpusSeed
		scfg.Scale = 0.02
		store, err := synth.Generate(pairing.NewAnalyzer(catalog), scfg)
		if err != nil {
			t.Fatal(err)
		}
		testVocab = newVocab(store)
	})
	if testVocab == nil {
		t.Fatal("no vocabulary")
	}
	return testVocab
}

func TestSeedReproducesRequestSequence(t *testing.T) {
	v := smallVocab(t)
	for _, w := range workloads {
		a, b := newGenerator(w.Deck, 7, v), newGenerator(w.Deck, 7, v)
		other := newGenerator(w.Deck, 8, v)
		differs := false
		for i := 0; i < 1000; i++ {
			oa, ob := a.op(i), b.op(i)
			if !reflect.DeepEqual(oa, ob) {
				t.Fatalf("%s: seed 7 op %d differs between generators:\n%+v\n%+v", w.Name, i, oa, ob)
			}
			differs = differs || !reflect.DeepEqual(oa, other.op(i))
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 send the same 1000 operations", w.Name)
		}
	}
}

func TestEveryBlockHoldsTheDeck(t *testing.T) {
	v := smallVocab(t)
	for _, w := range workloads {
		g := newGenerator(w.Deck, 3, v)
		want := map[opKind]int{}
		for _, e := range w.Deck {
			want[e.Kind] += e.N
		}
		for block := 0; block < 3; block++ {
			got := map[opKind]int{}
			for i := block * len(g.deck); i < (block+1)*len(g.deck); i++ {
				got[g.op(i).Kind]++
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s block %d holds %v, want %v", w.Name, block, got, want)
			}
		}
	}
}

func TestRequestsRouteAsSent(t *testing.T) {
	v := smallVocab(t)
	for _, w := range workloads {
		g := newGenerator(w.Deck, 1, v)
		for i := 0; i < len(g.deck); i++ {
			o := g.op(i)
			if len(o.Writes) > 0 {
				continue
			}
			c := readCall(o)
			req := httptest.NewRequest(c.method, c.path, nil)
			if got := routeOf(req); got != c.route {
				t.Errorf("%s %s routes as %v, sent as %v", c.method, c.path, got, c.route)
			}
		}
	}
	for _, tc := range []struct {
		method, path string
		want         route
	}{
		{"POST", "/api/recipes", rUpsert},
		{"POST", "/api/recipes/batch", rBatch},
		{"DELETE", "/api/recipes/12", rDelete},
		{"GET", "/api/health", rOther},
	} {
		if got := routeOf(httptest.NewRequest(tc.method, tc.path, nil)); got != tc.want {
			t.Errorf("%s %s routes as %v, want %v", tc.method, tc.path, got, tc.want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	regions := make([]string, len(recipedb.MajorRegions()))
	for i, r := range recipedb.MajorRegions() {
		regions[i] = fmt.Sprintf(`{"code":%q,"recipes":1}`, r.Code())
	}
	body := "[" + strings.Join(regions, ",") + "]"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		fmt.Fprint(w, body)
	}))
	defer srv.Close()

	v := &vocab{regions: recipedb.MajorRegions()}
	rn := newRunner(srv.URL, newGenerator([]deckEntry{{opRegions, 1}}, 1, v), &checker{})
	defer rn.close()
	rec := rn.phase()
	// 20 operations due 5 ms apart on one connection that takes 20 ms
	// each: operation j waits about 15 ms per earlier operation.
	rn.openLoop(200, 100*time.Millisecond, 1)
	if rec.ok != 20 || rec.failed != 0 {
		t.Fatalf("ok=%d failed=%d, notes %v", rec.ok, rec.failed, rec.notes)
	}
	lat := summarize(rec.lat[rRegions])
	if lat.p(0) < ms(service) {
		t.Errorf("fastest latency %.1f ms is below the service time", lat.p(0))
	}
	if last := lat.p(100); last < 200 {
		t.Errorf("slowest latency %.1f ms: queueing behind earlier operations is not counted", last)
	}
	if late := summarize(rec.late).p(100); late < 180 {
		t.Errorf("generator lateness %.1f ms: the backlog is not reported", late)
	}
}

func TestAdmitExcludesHandlerAndReplay(t *testing.T) {
	const handler, replay = 5 * time.Millisecond, 20 * time.Millisecond
	tr := &tracer{}
	tr.on.Store(true)
	h := tr.outer(tr.inner(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { time.Sleep(handler) }),
		func(route, *http.Request, []byte) time.Duration { time.Sleep(replay); return replay }))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/regions", nil))
	if len(tr.admit) != 1 {
		t.Fatalf("%d admission samples, want 1", len(tr.admit))
	}
	if got := tr.admit[0]; got > us(handler) {
		t.Errorf("admission took %.0f us around a no-op stack: the handler or the replay is charged to it", got)
	}
	if got := tr.handler[rRegions][0]; got < ms(handler) || got > ms(replay) {
		t.Errorf("handler span %.1f ms, want about %.0f ms", got, ms(handler))
	}
}

func TestWhyFitsOneLine(t *testing.T) {
	for _, w := range workloads {
		if why := whyLine(w); len(why) > 200 || strings.ContainsAny(why, "\n\r") {
			t.Errorf("%s: why has %d characters, want one line of at most 200: %q", w.Name, len(why), why)
		}
	}
}

func TestManifestsUpToDate(t *testing.T) {
	for path, v := range map[string]any{
		"../BENCHMARK.json": benchmarkManifest(),
		"manifest.json":     fullManifest(),
	} {
		want, err := marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is stale; regenerate it with: bash perfbench/run.sh -manifest", path)
		}
	}
}
