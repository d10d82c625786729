package pairing

import (
	"fmt"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

// Model selects one of the paper's four randomized-cuisine controls
// (§IV.B). Every model preserves the cuisine's exact ingredient set and
// its recipe-size distribution.
type Model int

const (
	// RandomModel chooses ingredients uniformly from the cuisine's
	// ingredient set.
	RandomModel Model = iota
	// FrequencyModel preserves the empirical frequency of use of
	// ingredients.
	FrequencyModel
	// CategoryModel preserves each template recipe's category
	// composition, choosing uniformly within each category.
	CategoryModel
	// FrequencyCategoryModel preserves category composition and draws
	// within each category proportionally to ingredient frequency.
	FrequencyCategoryModel
	numModels
)

// NumModels is the number of null models (4).
const NumModels = int(numModels)

var modelNames = [...]string{
	"Random", "Frequency", "Category", "Frequency+Category",
}

// String returns the model's display name.
func (m Model) String() string {
	if m < 0 || m >= numModels {
		return fmt.Sprintf("Model(%d)", int(m))
	}
	return modelNames[m]
}

// AllModels returns the four models in declaration order.
func AllModels() []Model {
	out := make([]Model, NumModels)
	for i := range out {
		out[i] = Model(i)
	}
	return out
}

// DefaultNullRecipes is the paper's control size: "100,000 recipes were
// generated for the random control and models."
const DefaultNullRecipes = 100000

// NullSampler draws randomized recipes for one cuisine under one model.
// Construction precomputes the per-model sampling structures; Draw is
// then allocation-light. A sampler is not safe for concurrent use (it
// owns an rng.Source); build one per goroutine.
type NullSampler struct {
	model    Model
	analyzer *Analyzer
	cuisine  *recipedb.Cuisine
	src      *rng.Source

	// ingredient pool of the cuisine
	pool []flavor.ID
	// frequency-weighted sampler over pool (FrequencyModel)
	freq *rng.Weighted
	// per-category pools and frequency samplers (category models)
	catPool [][]flavor.ID
	catFreq []*rng.Weighted
	// templates holds the cuisine recipes' ingredient lists, snapshot
	// at construction (one store lock, not one per draw): they provide
	// sizes (all models) and category compositions (category models)
	templates [][]flavor.ID
	buf       []flavor.ID
	seen      map[flavor.ID]struct{}
}

// NewNullSampler builds a sampler for the cuisine under the model. It
// returns an error for degenerate cuisines (no recipes or fewer than two
// ingredients), which cannot support any control.
func NewNullSampler(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model, src *rng.Source) (*NullSampler, error) {
	return newNullSampler(a, c, store.IngredientLists(c.RecipeIDs), m, src)
}

// newNullSampler is NewNullSampler over templates, the ingredient lists
// of c.RecipeIDs in order.
func newNullSampler(a *Analyzer, c *recipedb.Cuisine, templates [][]flavor.ID, m Model, src *rng.Source) (*NullSampler, error) {
	if m < 0 || m >= numModels {
		return nil, fmt.Errorf("pairing: invalid model %d", int(m))
	}
	if len(c.RecipeIDs) == 0 {
		return nil, fmt.Errorf("pairing: cuisine %s has no recipes", c.Region.Code())
	}
	if len(c.UniqueIngredients) < 2 {
		return nil, fmt.Errorf("pairing: cuisine %s has %d unique ingredients, need >= 2",
			c.Region.Code(), len(c.UniqueIngredients))
	}
	s := &NullSampler{
		model:     m,
		analyzer:  a,
		cuisine:   c,
		src:       src,
		pool:      c.UniqueIngredients,
		templates: templates,
		seen:      make(map[flavor.ID]struct{}, 32),
	}
	switch m {
	case FrequencyModel:
		weights := make([]float64, len(s.pool))
		for i, id := range s.pool {
			weights[i] = float64(c.IngredientFreq[id])
		}
		w, err := rng.NewWeighted(weights)
		if err != nil {
			return nil, fmt.Errorf("pairing: frequency weights for %s: %w", c.Region.Code(), err)
		}
		s.freq = w
	case CategoryModel, FrequencyCategoryModel:
		catalog := a.Catalog()
		s.catPool = make([][]flavor.ID, flavor.NumCategories)
		for _, id := range s.pool {
			cat := catalog.Ingredient(id).Category
			s.catPool[cat] = append(s.catPool[cat], id)
		}
		if m == FrequencyCategoryModel {
			s.catFreq = make([]*rng.Weighted, flavor.NumCategories)
			for cat, ids := range s.catPool {
				if len(ids) == 0 {
					continue
				}
				weights := make([]float64, len(ids))
				for i, id := range ids {
					weights[i] = float64(c.IngredientFreq[id])
				}
				w, err := rng.NewWeighted(weights)
				if err != nil {
					return nil, fmt.Errorf("pairing: category %d weights for %s: %w",
						cat, c.Region.Code(), err)
				}
				s.catFreq[cat] = w
			}
		}
	}
	return s, nil
}

// Model returns the sampler's model.
func (s *NullSampler) Model() Model { return s.model }

// Draw generates one randomized recipe (a set of distinct ingredient
// IDs). The returned slice is reused across calls; callers must not
// retain it.
func (s *NullSampler) Draw() []flavor.ID {
	tmpl := s.templates[s.src.Intn(len(s.templates))]
	size := len(tmpl)
	s.buf = s.buf[:0]
	for k := range s.seen {
		delete(s.seen, k)
	}
	switch s.model {
	case RandomModel:
		if size >= len(s.pool) {
			// Degenerate: use the whole pool.
			s.buf = append(s.buf, s.pool...)
			return s.buf
		}
		for _, idx := range s.src.SampleWithoutReplacement(len(s.pool), size) {
			s.buf = append(s.buf, s.pool[idx])
		}
	case FrequencyModel:
		if size >= len(s.pool) {
			s.buf = append(s.buf, s.pool...)
			return s.buf
		}
		for len(s.buf) < size {
			id := s.pool[s.freq.Sample(s.src)]
			if _, dup := s.seen[id]; dup {
				continue
			}
			s.seen[id] = struct{}{}
			s.buf = append(s.buf, id)
		}
	case CategoryModel, FrequencyCategoryModel:
		// Preserve the template's category multiset; draw within each
		// slot's category. Duplicate draws retry a bounded number of
		// times, then fall back to a linear scan for an unused member;
		// if the whole category is exhausted the slot keeps the
		// template's original ingredient.
		catalog := s.analyzer.Catalog()
		for _, orig := range tmpl {
			cat := catalog.Ingredient(orig).Category
			id := s.drawFromCategory(cat, orig)
			s.seen[id] = struct{}{}
			s.buf = append(s.buf, id)
		}
	}
	return s.buf
}

func (s *NullSampler) drawFromCategory(cat flavor.Category, orig flavor.ID) flavor.ID {
	pool := s.catPool[cat]
	if len(pool) == 0 {
		return orig // template ingredient category not in cuisine pool: keep original
	}
	for attempt := 0; attempt < 16; attempt++ {
		var id flavor.ID
		if s.model == FrequencyCategoryModel && s.catFreq[cat] != nil {
			id = pool[s.catFreq[cat].Sample(s.src)]
		} else {
			id = pool[s.src.Intn(len(pool))]
		}
		if _, dup := s.seen[id]; !dup {
			return id
		}
	}
	for _, id := range pool {
		if _, dup := s.seen[id]; !dup {
			return id
		}
	}
	return orig
}

// NullMoments draws nRecipes randomized recipes and accumulates the mean
// and standard deviation of their pairing scores.
func (s *NullSampler) NullMoments(nRecipes int) (mean, std float64, scored int) {
	var acc stats.Accumulator
	for i := 0; i < nRecipes; i++ {
		if v, ok := s.analyzer.RecipeScore(s.Draw()); ok {
			acc.Add(v)
		}
	}
	return acc.Mean(), acc.PopStdDev(), acc.N()
}

// Compare runs the full §IV.B comparison for one cuisine and model:
// observed N̄s against the model's randomized moments over nRecipes
// draws, with the Z-score of the deviation.
func Compare(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model, nRecipes int, src *rng.Source) (Result, error) {
	return CompareLists(a, c, store.IngredientLists(c.RecipeIDs), m, nRecipes, src)
}

// CompareLists is Compare over lists, the ingredient lists of
// c.RecipeIDs in order, instead of a store. It reads no store, so a
// caller that fetched c and lists under one Store.Read gets the answer
// at exactly that corpus version however writes interleave with the
// sampling. Given the lists Compare would fetch, the result is bit for
// bit Compare's.
func CompareLists(a *Analyzer, c *recipedb.Cuisine, lists [][]flavor.ID, m Model, nRecipes int, src *rng.Source) (Result, error) {
	sampler, err := newNullSampler(a, c, lists, m, src)
	if err != nil {
		return Result{}, err
	}
	observed, scored := a.listsScore(lists)
	if scored == 0 {
		return Result{}, fmt.Errorf("pairing: cuisine %s has no scorable recipes", c.Region.Code())
	}
	mean, std, n := sampler.NullMoments(nRecipes)
	if n == 0 {
		return Result{}, fmt.Errorf("pairing: model %s produced no scorable recipes for %s", m, c.Region.Code())
	}
	return Result{
		Region:   c.Region,
		Model:    m,
		Observed: observed,
		NullMean: mean,
		NullStd:  std,
		NRandom:  n,
		Z:        stats.ZScore(observed, mean, std, n),
	}, nil
}

// ModelScore draws nRecipes recipes from model m and returns the mean
// pairing score of the model cuisine itself. Fig 4 plots, alongside each
// real cuisine, where each model cuisine falls relative to the Random
// control; this provides the model-side observable.
func ModelScore(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model, nRecipes int, src *rng.Source) (float64, error) {
	sampler, err := NewNullSampler(a, store, c, m, src)
	if err != nil {
		return 0, err
	}
	mean, _, n := sampler.NullMoments(nRecipes)
	if n == 0 {
		return 0, fmt.Errorf("pairing: model %s produced no scorable recipes for %s", m, c.Region.Code())
	}
	return mean, nil
}
