package culinary

import (
	"fmt"
	"sort"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/query"
	"culinary/internal/recipedb"
)

// queryShape is one named CQL statement.
type queryShape struct {
	name, stmt string
}

// perfbenchStatements derives, from a corpus, the 16 CQL statements
// perfbench's browse and mixed workloads send (perfbench/gen.go,
// statementSet): full-scan GROUP BY region and source, count(*) over
// four popular ingredients, avg(size) and a top-10 by size in four
// regions, and GROUP BY region over two ingredients.
func perfbenchStatements(store *recipedb.Store) []queryShape {
	cat := store.Catalog()
	type use struct {
		name string
		n    int
	}
	var uses []use
	for i := 0; i < cat.Len(); i++ {
		if n := len(store.IngredientRecipes(flavor.ID(i))); n > 0 {
			uses = append(uses, use{cat.Ingredient(flavor.ID(i)).Name, n})
		}
	}
	sort.Slice(uses, func(i, j int) bool {
		if uses[i].n != uses[j].n {
			return uses[i].n > uses[j].n
		}
		return uses[i].name < uses[j].name
	})
	shapes := []queryShape{
		{"GroupByRegion", "SELECT region, count(*) FROM recipes GROUP BY region"},
		{"GroupBySource", "SELECT source, count(*), avg(size) FROM recipes GROUP BY source"},
	}
	for i := 0; i < 4 && i < len(uses); i++ {
		shapes = append(shapes, queryShape{fmt.Sprintf("CountHas%d", i),
			fmt.Sprintf("SELECT count(*) FROM recipes WHERE has('%s')", uses[i*5].name)})
	}
	regions := recipedb.MajorRegions()
	for i := 0; i < 4; i++ {
		r := regions[i*5%len(regions)].Code()
		shapes = append(shapes,
			queryShape{"AvgSize" + r, fmt.Sprintf("SELECT avg(size) FROM recipes WHERE region = '%s'", r)},
			queryShape{"Top10" + r, fmt.Sprintf("SELECT name, size FROM recipes WHERE region = '%s' ORDER BY size DESC LIMIT 10", r)})
	}
	for i := 0; i < 2 && i < len(uses); i++ {
		shapes = append(shapes, queryShape{fmt.Sprintf("GroupByRegionHas%d", i),
			fmt.Sprintf("SELECT region, count(*) FROM recipes WHERE has('%s') GROUP BY region", uses[i*3+1].name)})
	}
	return shapes
}

var sinkResult *query.Result

// BenchmarkQueryStatements runs each perfbench statement uncached — the
// result cache off, so every run scans, as on mixed traffic where
// writes fence the cache — on the shared 5% corpus. Run with -benchmem.
// A trend line only; the blocking check is TestQueryAllocsFlat.
func BenchmarkQueryStatements(b *testing.B) {
	engine := query.NewEngine(benchEnv.Store, benchEnv.Analyzer)
	for _, s := range perfbenchStatements(benchEnv.Store) {
		b.Run(s.name, func(b *testing.B) {
			if _, err := engine.Run(s.stmt); err != nil { // plan once
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(s.stmt)
				if err != nil {
					b.Fatal(err)
				}
				sinkResult = res
			}
		})
	}
}

// TestQueryAllocsFlat gates the uncached /api/query path: executing
// each perfbench statement shape must allocate the same on a corpus
// four times larger. Allocation that grows with the scan — a row per
// match before ORDER BY ... LIMIT, a group per matching row — fails it.
func TestQueryAllocsFlat(t *testing.T) {
	opts := experiments.TestOptions()
	opts.Scale = 0.2
	large, err := experiments.NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	if benchEnv.Store.Len()*3 > large.Store.Len() {
		t.Fatalf("corpora of %d and %d recipes are too close in size", benchEnv.Store.Len(), large.Store.Len())
	}
	shapes := []string{
		"SELECT count(*) FROM recipes WHERE has('garlic')",
		"SELECT avg(size) FROM recipes WHERE region = 'ITA'",
		"SELECT region, count(*) FROM recipes GROUP BY region",
		"SELECT source, count(*), avg(size) FROM recipes GROUP BY source",
		"SELECT name, size FROM recipes WHERE region = 'INSC' ORDER BY size DESC LIMIT 10",
	}
	allocs := func(env *experiments.Env, stmt string) float64 {
		engine := query.NewEngine(env.Store, env.Analyzer)
		return testing.AllocsPerRun(20, func() {
			if _, err := engine.Run(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, stmt := range shapes {
		small, big := allocs(benchEnv, stmt), allocs(large, stmt)
		if small != big {
			t.Errorf("%s allocates %v times at %d recipes but %v at %d",
				stmt, small, benchEnv.Store.Len(), big, large.Store.Len())
		}
	}
}
