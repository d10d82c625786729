package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// getPairing requests path and decodes its 200 pairing body.
func getPairing(t *testing.T, h http.Handler, path string) pairingBody {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rr.Code, rr.Body.String())
	}
	var b pairingBody
	if err := json.Unmarshal(rr.Body.Bytes(), &b); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return b
}

// freshCompare is the pairing answer at the store's current version,
// computed without the server.
func freshCompare(t *testing.T, s *Server, r recipedb.Region, m pairing.Model, n int) pairingBody {
	t.Helper()
	store := s.cfg.Store
	res, err := pairing.Compare(s.cfg.Analyzer, store, store.BuildCuisine(r), m, n, rng.New(s.cfg.Seed).Split(uint64(r)))
	if err != nil {
		t.Fatal(err)
	}
	return bodyOf(res)
}

// rewriteOne upserts the first live recipe of region with its last
// ingredient dropped, moving the corpus version and the region's
// pairing answer.
func rewriteOne(t *testing.T, s *Server, region recipedb.Region) {
	t.Helper()
	store := s.cfg.Store
	for _, id := range store.RegionRecipes(region) {
		rec := store.Recipe(id)
		if len(rec.Ingredients) < 3 {
			continue
		}
		ings := rec.Ingredients[:len(rec.Ingredients)-1]
		if _, _, _, err := store.Upsert(id, rec.Name, region, rec.Source, ings); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("region %s has no recipe with 3 ingredients", region.Code())
}

// TestPairingMemoKeysOnNullAndVersion serves one (region, model) at two
// null sizes in the order A, B, A, then after a write: every response
// must equal a fresh Compare at that null size and corpus version, so
// neither a different n nor an older version is ever served from the
// memo.
func TestPairingMemoKeysOnNullAndVersion(t *testing.T) {
	s, h := mutableServer(t)
	const a, b = 100, 150
	path := func(n int) string { return fmt.Sprintf("/api/regions/ITA/pairing?null=%d&model=frequency", n) }
	for _, n := range []int{a, b, a, a} {
		want := freshCompare(t, s, recipedb.Italy, pairing.FrequencyModel, n)
		if got := getPairing(t, h, path(n)); got != want {
			t.Fatalf("null=%d: served %+v, Compare %+v", n, got, want)
		}
	}
	before := freshCompare(t, s, recipedb.Italy, pairing.FrequencyModel, a)
	rewriteOne(t, s, recipedb.Italy)
	want := freshCompare(t, s, recipedb.Italy, pairing.FrequencyModel, a)
	if want == before {
		t.Fatal("the write did not change the ITA answer; the test cannot see a stale entry")
	}
	if got := getPairing(t, h, path(a)); got != want {
		t.Fatalf("after a write: served %+v, Compare at the new version %+v", got, want)
	}
	if st := s.pairingMemo.stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("A,B,A,A,write,A: %d hits, %d misses; want 1 and 4", st.Hits, st.Misses)
	}
}

// TestPairingMemoBounded sweeps many null sizes over every region and
// model: the memo keeps one entry per (region, model), never one per
// null size.
func TestPairingMemoBounded(t *testing.T) {
	s, h := mutableServer(t)
	regions := append(recipedb.AllRegions(), recipedb.World)
	bound := len(regions) * pairing.NumModels
	for _, r := range regions {
		for _, m := range pairing.AllModels() {
			for n := 100; n <= 200; n += 25 {
				getPairing(t, h, fmt.Sprintf("/api/regions/%s/pairing?null=%d&model=%s", r.Code(), n, url.QueryEscape(m.String())))
				if e := s.pairingMemo.stats().Entries; e > bound {
					t.Fatalf("%d entries exceed %d regions x %d models", e, len(regions), pairing.NumModels)
				}
			}
		}
	}
	if e := s.pairingMemo.stats().Entries; e != bound {
		t.Fatalf("%d entries after the sweep, want one per (region, model): %d", e, bound)
	}
}

// TestPairingMemoPutKeepsNewer pins the put rule: a result computed at
// an older corpus version never replaces one from a newer version.
func TestPairingMemoPutKeepsNewer(t *testing.T) {
	var m pairingMemo
	k := pairingKey{recipedb.Italy, pairing.RandomModel}
	m.put(k, memoEntry{n: 100, version: 5, res: pairing.Result{Z: 5}})
	m.put(k, memoEntry{n: 100, version: 4, res: pairing.Result{Z: 4}})
	if res, ok := m.get(k, 100, 5); !ok || res.Z != 5 {
		t.Fatalf("older put replaced the newer entry: %+v %v", res, ok)
	}
	m.put(k, memoEntry{n: 200, version: 5, res: pairing.Result{Z: 6}})
	if res, ok := m.get(k, 200, 5); !ok || res.Z != 6 {
		t.Fatalf("same-version put for another n was not stored: %+v %v", res, ok)
	}
}

// TestHealthPairingMemoBlock checks the /api/health pairingMemo
// counters: a repeated identical request is a hit, and the first
// request after a write is a miss.
func TestHealthPairingMemoBlock(t *testing.T) {
	s, h := mutableServer(t)
	memo := func() map[string]float64 {
		t.Helper()
		_, body := do(t, h, "GET", "/api/health", nil)
		raw, ok := body["pairingMemo"].(map[string]interface{})
		if !ok {
			t.Fatalf("health lacks pairingMemo: %v", body)
		}
		out := map[string]float64{}
		for _, key := range []string{"hits", "misses", "entries"} {
			v, ok := raw[key].(float64)
			if !ok {
				t.Fatalf("pairingMemo.%s missing: %v", key, raw)
			}
			out[key] = v
		}
		return out
	}
	const path = "/api/regions/GRC/pairing?null=100"
	start := memo()
	getPairing(t, h, path)
	getPairing(t, h, path)
	afterRepeat := memo()
	if afterRepeat["hits"] != start["hits"]+1 || afterRepeat["misses"] != start["misses"]+1 || afterRepeat["entries"] != 1 {
		t.Fatalf("two identical requests moved the memo from %v to %v; want +1 hit, +1 miss, 1 entry", start, afterRepeat)
	}
	rewriteOne(t, s, recipedb.Greece)
	getPairing(t, h, path)
	afterWrite := memo()
	if afterWrite["misses"] != afterRepeat["misses"]+1 || afterWrite["hits"] != afterRepeat["hits"] {
		t.Fatalf("the first request after a write moved the memo from %v to %v; want +1 miss", afterRepeat, afterWrite)
	}
}

// BenchmarkPairingEndpoint measures one GET /api/regions/ITA/pairing
// through the handler stack on the shared 5% corpus. hit repeats one
// request, so every iteration after the first is served by the memo;
// miss alternates two null sizes, so every iteration replaces the
// (ITA, Random) entry and runs the null model.
func BenchmarkPairingEndpoint(b *testing.B) {
	h := testHandler(b)
	for _, c := range []struct {
		name  string
		paths []string
	}{
		{"hit", []string{"/api/regions/ITA/pairing?null=500"}},
		{"miss", []string{"/api/regions/ITA/pairing?null=500", "/api/regions/ITA/pairing?null=499"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			reqs := make([]*http.Request, len(c.paths))
			for i, p := range c.paths {
				reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
			}
			serve := func(i int) {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, reqs[i%len(reqs)])
				if rr.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
				}
			}
			serve(len(reqs) - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(i)
			}
		})
	}
}
