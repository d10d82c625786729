package query

import (
	"errors"
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

// fixture builds a deterministic four-region corpus with hand-chosen
// recipes so query assertions are exact.
type fixture struct {
	store    *recipedb.Store
	analyzer *pairing.Analyzer
	engine   *Engine
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := recipedb.NewStore(catalog)
	ids := func(names ...string) []flavor.ID {
		out := make([]flavor.ID, len(names))
		for i, n := range names {
			id, ok := catalog.Lookup(n)
			if !ok {
				t.Fatalf("catalog lacks %q", n)
			}
			out[i] = id
		}
		return out
	}
	add := func(name string, region recipedb.Region, names ...string) {
		if _, err := store.Add(name, region, recipedb.AllRecipes, ids(names...)); err != nil {
			t.Fatalf("Add(%q): %v", name, err)
		}
	}
	// Italy: 3 recipes, all with garlic and tomato.
	add("pasta marinara", recipedb.Italy, "tomato", "garlic", "basil", "olive oil", "salt")
	add("bruschetta", recipedb.Italy, "tomato", "garlic", "basil", "olive oil")
	add("aglio e olio", recipedb.Italy, "garlic", "olive oil", "parsley")
	// Japan: 2 recipes, no garlic.
	add("miso soup", recipedb.Japan, "tofu", "scallion", "seaweed")
	add("cucumber sunomono", recipedb.Japan, "cucumber", "rice vinegar", "sesame seed", "soy sauce")
	// India: 1 big spicy recipe.
	add("chana masala", recipedb.IndianSubcontinent,
		"chickpea", "onion", "tomato", "garlic", "ginger", "cumin", "coriander", "turmeric", "garam masala")
	analyzer := pairing.NewAnalyzer(catalog)
	return &fixture{store: store, analyzer: analyzer, engine: NewEngine(store, analyzer)}
}

func (f *fixture) mustRun(t *testing.T, q string) *Result {
	t.Helper()
	res, err := f.engine.Run(q)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	return res
}

func TestSelectStarProjection(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT * FROM recipes")
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	want := []string{"id", "name", "region", "source", "size"}
	if len(res.Columns) != len(want) {
		t.Fatalf("columns = %v", res.Columns)
	}
	for i := range want {
		if res.Columns[i] != want[i] {
			t.Errorf("column %d = %q, want %q", i, res.Columns[i], want[i])
		}
	}
	if res.Rows[0][1].Str != "pasta marinara" || res.Rows[0][4].Int != 5 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
}

func TestWhereHasIngredient(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT name FROM recipes WHERE has('garlic')")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (3 Italian + chana masala)", len(res.Rows))
	}
	res = f.mustRun(t, "SELECT name FROM recipes WHERE NOT has('garlic')")
	if len(res.Rows) != 2 {
		t.Fatalf("NOT has rows = %d, want 2", len(res.Rows))
	}
}

func TestWhereSynonymResolvesViaCatalog(t *testing.T) {
	f := newFixture(t)
	// The catalog maps synonyms (e.g. chile/chili); unknown names fail
	// at bind time with a semantic error rather than returning nothing.
	_, err := f.engine.Run("SELECT name FROM recipes WHERE has('definitely not food')")
	if !errors.Is(err, ErrSemantic) {
		t.Fatalf("err = %v, want ErrSemantic", err)
	}
}

func TestWhereComparisonsAndLike(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT name FROM recipes WHERE size >= 5")
	if len(res.Rows) != 2 { // marinara (5), chana masala (9)
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	res = f.mustRun(t, "SELECT name FROM recipes WHERE name LIKE 'PASTA'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "pasta marinara" {
		t.Fatalf("LIKE rows = %v", res.Rows)
	}
	res = f.mustRun(t, "SELECT name FROM recipes WHERE size != 4 AND size != 5 AND size != 9")
	if len(res.Rows) != 2 { // both size-3 recipes: aglio e olio, miso soup
		t.Fatalf("!= rows = %v", res.Rows)
	}
}

func TestWhereCategoryCount(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT name FROM recipes WHERE category('Spice') >= 4")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "chana masala" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRegionEqualityUsesIndex(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT name FROM recipes WHERE region = 'ITA'")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Scanned != 3 {
		t.Errorf("Scanned = %d, want 3 (region index should narrow the scan)", res.Scanned)
	}
	// Flipped operand order also plans the index.
	res = f.mustRun(t, "SELECT name FROM recipes WHERE 'JPN' = region AND size > 3")
	if res.Scanned != 2 {
		t.Errorf("Scanned = %d, want 2", res.Scanned)
	}
	// OR disables the optimization but stays correct.
	res = f.mustRun(t, "SELECT name FROM recipes WHERE region = 'ITA' OR region = 'JPN'")
	if res.Scanned != 6 {
		t.Errorf("Scanned = %d, want 6 (full scan under OR)", res.Scanned)
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.Rows))
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT count(*), avg(size), min(size), max(size), sum(size) FROM recipes")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].Int != 6 {
		t.Errorf("count = %v", row[0])
	}
	if row[2].Int != 3 || row[3].Int != 9 {
		t.Errorf("min/max = %v/%v", row[2], row[3])
	}
	wantSum := int64(5 + 4 + 3 + 3 + 4 + 9)
	if row[4].Int != wantSum {
		t.Errorf("sum = %v, want %d", row[4], wantSum)
	}
	wantAvg := float64(wantSum) / 6
	if row[1].Float != wantAvg {
		t.Errorf("avg = %v, want %g", row[1], wantAvg)
	}
}

func TestGroupByRegion(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT region, count(*), avg(size) FROM recipes GROUP BY region ORDER BY count(*) DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][0].Str != "ITA" || res.Rows[0][1].Int != 3 {
		t.Errorf("top group = %v", res.Rows[0])
	}
	// Ascending default order is deterministic (sorted by key).
	res = f.mustRun(t, "SELECT region, count(*) FROM recipes GROUP BY region")
	if res.Rows[0][0].Str != "INSC" {
		t.Errorf("default group order starts with %q, want INSC", res.Rows[0][0].Str)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT name, size FROM recipes ORDER BY size DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str != "chana masala" || res.Rows[1][0].Str != "pasta marinara" {
		t.Errorf("rows = %v", res.Rows)
	}
	// LIMIT without ORDER BY stops evaluating once LIMIT rows are in.
	res = f.mustRun(t, "SELECT name FROM recipes LIMIT 1")
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestScoreFieldRequiresAnalyzer(t *testing.T) {
	f := newFixture(t)
	bare := NewEngine(f.store, nil)
	if _, err := bare.Run("SELECT name, score FROM recipes"); !errors.Is(err, ErrNoScore) {
		t.Fatalf("err = %v, want ErrNoScore", err)
	}
	// With an analyzer, scores are finite and the filter works.
	res := f.mustRun(t, "SELECT name, score FROM recipes WHERE score > 0 ORDER BY score DESC")
	if len(res.Rows) == 0 {
		t.Fatal("no scored rows")
	}
	prev := res.Rows[0][1].Float
	for _, row := range res.Rows[1:] {
		if row[1].Float > prev {
			t.Errorf("scores not descending: %v after %g", row[1], prev)
		}
		prev = row[1].Float
	}
}

func TestSemanticErrors(t *testing.T) {
	f := newFixture(t)
	cases := []string{
		"SELECT name, count(*) FROM recipes",                // mixed without GROUP BY
		"SELECT name FROM recipes GROUP BY region",          // non-key plain column
		"SELECT id FROM recipes WHERE name > 3",             // type mismatch
		"SELECT id FROM recipes WHERE size AND size",        // non-boolean AND
		"SELECT id FROM recipes WHERE NOT size",             // non-boolean NOT
		"SELECT id FROM recipes WHERE size",                 // non-boolean WHERE
		"SELECT id FROM recipes WHERE category('Nope') > 0", // unknown category
		"SELECT region FROM recipes ORDER BY size",          // order key not selected
		"SELECT id FROM recipes WHERE name LIKE 3",          // LIKE non-string
	}
	for _, q := range cases {
		if _, err := f.engine.Run(q); err == nil {
			t.Errorf("Run(%q) succeeded, want error", q)
		}
	}
}

func TestResultTableRendering(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT region, count(*) FROM recipes GROUP BY region")
	var sb strings.Builder
	if err := res.Table("per region").Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"region", "count(*)", "ITA", "JPN", "INSC"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyResultShapes(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT name FROM recipes WHERE size > 100")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Aggregates over empty matches still emit one row of zeros.
	res = f.mustRun(t, "SELECT count(*), avg(size) FROM recipes WHERE size > 100")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 0 {
		t.Errorf("aggregate over empty = %v", res.Rows)
	}
	// GROUP BY over empty matches emits no rows.
	res = f.mustRun(t, "SELECT region, count(*) FROM recipes WHERE size > 100 GROUP BY region")
	if len(res.Rows) != 0 {
		t.Errorf("grouped over empty = %v", res.Rows)
	}
}

func TestCaseInsensitiveStringEquality(t *testing.T) {
	f := newFixture(t)
	res := f.mustRun(t, "SELECT name FROM recipes WHERE region = 'ita'")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (region codes compare case-insensitively)", len(res.Rows))
	}
}
