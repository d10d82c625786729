package pairing_test

import (
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

// composedCompare is Compare spelled out through the public pieces it
// was built from before CompareLists existed: a sampler and a cuisine
// score that each fetch the ingredient lists from the store.
func composedCompare(a *pairing.Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m pairing.Model, n int, src *rng.Source) (pairing.Result, error) {
	sampler, err := pairing.NewNullSampler(a, store, c, m, src)
	if err != nil {
		return pairing.Result{}, err
	}
	observed, _ := a.CuisineScore(store, c)
	mean, std, scored := sampler.NullMoments(n)
	return pairing.Result{
		Region: c.Region, Model: m, Observed: observed,
		NullMean: mean, NullStd: std, NRandom: scored,
		Z: stats.ZScore(observed, mean, std, scored),
	}, nil
}

// TestCompareListsMatchesCompare pins CompareLists to Compare, and both
// to the sampler + cuisine-score composition, bit for bit (== on every
// float) for every major region and World under all four models. The
// lists come from one Store.Read, the way the pairing endpoint fetches
// them.
func TestCompareListsMatchesCompare(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	regions := append(recipedb.MajorRegions(), recipedb.World)
	for _, r := range regions {
		var (
			c     *recipedb.Cuisine
			lists [][]flavor.ID
		)
		env.Store.Read(func(v *recipedb.View) {
			c = v.BuildCuisine(r)
			lists = v.IngredientLists(c.RecipeIDs)
		})
		for _, m := range pairing.AllModels() {
			src := func() *rng.Source { return rng.New(env.Seed).Split(uint64(r)) }
			got, err := pairing.CompareLists(env.Analyzer, c, lists, m, n, src())
			if err != nil {
				t.Fatalf("%s/%s: CompareLists: %v", r.Code(), m, err)
			}
			want, err := pairing.Compare(env.Analyzer, env.Store, c, m, n, src())
			if err != nil {
				t.Fatalf("%s/%s: Compare: %v", r.Code(), m, err)
			}
			composed, err := composedCompare(env.Analyzer, env.Store, c, m, n, src())
			if err != nil {
				t.Fatalf("%s/%s: composed: %v", r.Code(), m, err)
			}
			if got != want || got != composed {
				t.Errorf("%s/%s: CompareLists %+v, Compare %+v, composed %+v", r.Code(), m, got, want, composed)
			}
		}
	}
}

// TestRecipeScoreAllocsZero gates the null models' inner loop:
// RecipeScore is called once per draw, so scoring any recipe of up to
// 64 profiled ingredients must not allocate. Larger recipes may spill
// to the heap but must score the same as the pairwise definition.
func TestRecipeScoreAllocsZero(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := env.Analyzer
	lists := env.Store.IngredientLists(env.Store.LiveIDs())
	var sink float64
	allocs := testing.AllocsPerRun(5, func() {
		for _, ings := range lists {
			s, _ := a.RecipeScore(ings)
			sink += s
		}
	})
	if allocs != 0 {
		t.Fatalf("scoring %d corpus recipes allocates %v times, want 0", len(lists), allocs)
	}
	var wide [64]flavor.ID
	for i := range wide {
		wide[i] = flavor.ID(i)
	}
	if allocs := testing.AllocsPerRun(20, func() { a.RecipeScore(wide[:]) }); allocs != 0 {
		t.Fatalf("scoring a %d-ingredient recipe allocates %v times, want 0", len(wide), allocs)
	}

	// Past the stack buffer: every ingredient of the catalog, plus a
	// duplicate, against the definition.
	all := make([]flavor.ID, 0, env.Catalog.Len()+1)
	for i := 0; i < env.Catalog.Len(); i++ {
		all = append(all, flavor.ID(i))
	}
	all = append(all, all[0])
	got, ok := a.RecipeScore(all)
	want, wantOK := definitionScore(env.Catalog, a, all)
	if ok != wantOK || got != want {
		t.Fatalf("catalog-wide recipe scores %v (%v), definition %v (%v)", got, ok, want, wantOK)
	}
}

// definitionScore is Ns(R) straight from its definition over the
// profiled members of ids, in order, skipping repeated members.
func definitionScore(cat *flavor.Catalog, a *pairing.Analyzer, ids []flavor.ID) (float64, bool) {
	var prof []flavor.ID
	for _, id := range ids {
		if cat.Ingredient(id).HasProfile {
			prof = append(prof, id)
		}
	}
	n := len(prof)
	if n < 2 {
		return 0, false
	}
	var sum int64
	for i := range prof {
		for j := i + 1; j < n; j++ {
			sum += int64(a.Shared(prof[i], prof[j]))
		}
	}
	return 2 * float64(sum) / (float64(n) * float64(n-1)), true
}
