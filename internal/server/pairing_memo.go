package server

import (
	"sync"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// pairingKey names one cell of the pairing endpoint's answer space. The
// region and model are parsed enums, so the memo holds at most
// (recipedb.NumAllRegions+1) × pairing.NumModels entries.
type pairingKey struct {
	region recipedb.Region
	model  pairing.Model
}

// memoEntry is one memoised comparison: the answer for null size n
// at corpus version version.
type memoEntry struct {
	n       int
	version uint64
	res     pairing.Result
}

// pairingMemo remembers the last pairing result per (region, model).
// The answer is fully determined by (region, model, n, corpus version)
// — the seed is fixed per region — so an entry is served only while
// its n and version both match; any write fences every entry at once.
// It is bounded by its key space, so it needs no byte budget or
// eviction.
type pairingMemo struct {
	mu      sync.Mutex
	entries map[pairingKey]memoEntry
	hits    int64
	misses  int64
}

// pairingMemoStats is the /api/health pairingMemo block.
type pairingMemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// get returns the memoised result for k when it was computed for null
// size n at corpus version version, counting a hit or a miss.
func (m *pairingMemo) get(k pairingKey, n int, version uint64) (pairing.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[k]; ok && e.n == n && e.version == version {
		m.hits++
		return e.res, true
	}
	m.misses++
	return pairing.Result{}, false
}

// put stores e under k unless k already holds a result from a newer
// corpus version: a slow miss that started before a write must not
// overwrite the answer a later request computed after it.
func (m *pairingMemo) put(k pairingKey, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[k]; ok && old.version > e.version {
		return
	}
	if m.entries == nil {
		m.entries = make(map[pairingKey]memoEntry)
	}
	m.entries[k] = e
}

func (m *pairingMemo) stats() pairingMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return pairingMemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries)}
}

// pairingResult answers the pairing endpoint: region's observed flavor
// sharing against model's null over n draws. A hit costs one version
// load and one map probe. A miss reads the cuisine and its ingredient
// lists under one Store.Read, so the observed score, the null templates
// and the ingredient pool all describe that view's version, then
// samples outside the lock so writers are not held behind the null
// model.
func (s *Server) pairingResult(region recipedb.Region, model pairing.Model, n int) (pairing.Result, error) {
	key := pairingKey{region, model}
	if res, ok := s.pairingMemo.get(key, n, s.cfg.Store.Version()); ok {
		return res, nil
	}
	var (
		version uint64
		c       *recipedb.Cuisine
		lists   [][]flavor.ID
	)
	s.cfg.Store.Read(func(v *recipedb.View) {
		version = v.Version
		c = v.BuildCuisine(region)
		lists = v.IngredientLists(c.RecipeIDs)
	})
	res, err := pairing.CompareLists(s.cfg.Analyzer, c, lists, model, n, rng.New(s.cfg.Seed).Split(uint64(region)))
	if err != nil {
		return res, err
	}
	s.pairingMemo.put(key, memoEntry{n: n, version: version, res: res})
	return res, nil
}
