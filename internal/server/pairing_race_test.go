package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// pairingBody is the numeric part of a pairing response.
type pairingBody struct {
	Observed float64 `json:"observed"`
	NullMean float64 `json:"nullMean"`
	NullStd  float64 `json:"nullStd"`
	NRandom  int     `json:"nRandom"`
	Z        float64 `json:"z"`
}

func bodyOf(res pairing.Result) pairingBody {
	return pairingBody{res.Observed, res.NullMean, res.NullStd, res.NRandom, res.Z}
}

// TestPairingReadNeverTorn checks that every pairing response is the
// answer at exactly one corpus version. One writer upserts and deletes
// ITA recipes in sequence; being the only writer, it records the exact
// reference pairing.Compare after each write. Four readers request
// /api/regions/ITA/pairing throughout, and every 200 must parse and
// equal one of the references. A handler that read the cuisine, the
// null templates and the observed lists under separate locks could mix
// versions and answer a result no version has. Run under -race.
func TestPairingReadNeverTorn(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	const seed, null = 5, 100
	s, err := New(Config{
		Store:                      env.Store,
		Analyzer:                   env.Analyzer,
		NullRecipes:                200,
		Seed:                       seed,
		ClassifierRebuildInterval:  -1,
		RecommenderRebuildInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	store := env.Store
	reference := func() pairingBody {
		res, err := pairing.Compare(env.Analyzer, store, store.BuildCuisine(recipedb.Italy),
			pairing.RandomModel, null, rng.New(seed).Split(uint64(recipedb.Italy)))
		if err != nil {
			t.Fatal(err)
		}
		return bodyOf(res)
	}
	refs := []pairingBody{reference()}

	ita := store.RegionRecipes(recipedb.Italy)
	pool := store.BuildCuisine(recipedb.Italy).UniqueIngredients
	writes := 120
	if len(ita) < writes {
		t.Fatalf("ITA has %d recipes, need %d", len(ita), writes)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	got := make([][]pairingBody, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !done.Load() {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/regions/ITA/pairing?null=100", nil))
				if rr.Code != http.StatusOK {
					t.Errorf("reader %d: status %d: %s", g, rr.Code, rr.Body.String())
					return
				}
				var b pairingBody
				if err := json.Unmarshal(rr.Body.Bytes(), &b); err != nil {
					t.Errorf("reader %d: unparseable 200 body %q: %v", g, rr.Body.String(), err)
					return
				}
				got[g] = append(got[g], b)
			}
		}(g)
	}

	// Alternate a delete with an upsert that changes the recipe's size,
	// so every write moves the templates and the observed score.
	for k := 0; k < writes; k++ {
		id := ita[k]
		if k%2 == 0 {
			if _, err := store.Remove(id); err != nil {
				t.Fatal(err)
			}
		} else {
			rec := store.Recipe(id)
			ings := append([]flavor.ID(nil), rec.Ingredients...)
			if len(ings) >= 3 {
				ings = ings[:len(ings)-1]
			} else {
				ings = append(ings, absentFrom(ings, pool))
			}
			if _, _, _, err := store.Upsert(id, rec.Name, recipedb.Italy, rec.Source, ings); err != nil {
				t.Fatal(err)
			}
		}
		refs = append(refs, reference())
	}
	done.Store(true)
	wg.Wait()

	known := make(map[pairingBody]bool, len(refs))
	for _, r := range refs {
		known[r] = true
	}
	total := 0
	for g, bodies := range got {
		total += len(bodies)
		for i, b := range bodies {
			if !known[b] {
				t.Fatalf("reader %d response %d is no version's answer: %+v", g, i, b)
			}
		}
	}
	if total == 0 {
		t.Fatal("readers got no responses")
	}
}

// absentFrom returns the first member of pool not in ings.
func absentFrom(ings, pool []flavor.ID) flavor.ID {
	for _, id := range pool {
		if !slices.Contains(ings, id) {
			return id
		}
	}
	panic("pool exhausted")
}
