package culinary

import (
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/recipedb"
)

var sinkCuisine *recipedb.Cuisine

// BenchmarkBuildCuisine measures building the analytical view of the
// largest region and of World on the shared 5% corpus. Run with
// -benchmem: the frequencies come from the per-region aggregates, so
// what is left to scale with the region is RecipeIDs and Sizes.
func BenchmarkBuildCuisine(b *testing.B) {
	for _, r := range []recipedb.Region{recipedb.USA, recipedb.World} {
		b.Run(r.Code(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCuisine = benchEnv.Store.BuildCuisine(r)
			}
		})
	}
}

// TestRegionSummaryAllocsFlat gates the /api/regions read path:
// summarising all 22 regions through View.RegionSummary must allocate
// the same on a corpus four times larger, because the summaries are
// running totals, not scans.
func TestRegionSummaryAllocsFlat(t *testing.T) {
	opts := experiments.TestOptions()
	opts.Scale = 0.2
	large, err := experiments.NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	regions := recipedb.MajorRegions()
	allocs := func(store *recipedb.Store) float64 {
		return testing.AllocsPerRun(20, func() {
			store.Read(func(v *recipedb.View) {
				for _, r := range regions {
					if v.RegionSummary(r).Recipes == 0 {
						t.Errorf("region %s is empty", r)
					}
				}
			})
		})
	}
	small, big := allocs(benchEnv.Store), allocs(large.Store)
	if benchEnv.Store.Len()*3 > large.Store.Len() {
		t.Fatalf("corpora of %d and %d recipes are too close in size", benchEnv.Store.Len(), large.Store.Len())
	}
	if small != big {
		t.Fatalf("summarising 22 regions allocates %v times at %d recipes but %v at %d", small, benchEnv.Store.Len(), big, large.Store.Len())
	}
}
