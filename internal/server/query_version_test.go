package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"culinary/internal/experiments"
)

// TestQueryVersionHeaderMatchesBody checks that every 200 from
// POST /api/query carries in X-Corpus-Version the version its body
// reports. One writer upserts throughout while four readers query; a
// header stamped before the engine runs would name an older version
// whenever a write lands in between. Run under -race.
func TestQueryVersionHeaderMatchesBody(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Store:                      env.Store,
		Analyzer:                   env.Analyzer,
		NullRecipes:                200,
		ClassifierRebuildInterval:  -1,
		RecommenderRebuildInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	store := env.Store

	var done atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !done.Load() {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/query",
					strings.NewReader(`{"q": "SELECT count(*) FROM recipes WHERE has('garlic')"}`)))
				if rr.Code != http.StatusOK {
					t.Errorf("reader %d: status %d: %s", g, rr.Code, rr.Body.String())
					return
				}
				var body struct {
					Version uint64 `json:"version"`
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
					t.Errorf("reader %d: unparseable 200 body %q: %v", g, rr.Body.String(), err)
					return
				}
				header := rr.Header().Get(CorpusVersionHeader)
				if header != strconv.FormatUint(body.Version, 10) {
					t.Errorf("reader %d: %s %s, body version %d", g, CorpusVersionHeader, header, body.Version)
					return
				}
				served.Add(1)
			}
		}(g)
	}

	rec := store.Recipe(0)
	for k := 0; k < 400; k++ {
		if _, _, _, err := store.Upsert(0, rec.Name, rec.Region, rec.Source, rec.Ingredients); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("readers got no responses")
	}
}
