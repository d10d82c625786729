package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/synth"
)

// differentialAtoms are WHERE-clause leaves covering every field, every
// comparison operator, LIKE, [NOT] IN, has(), category(), literals on
// either side, and statically ill-typed leaves whose error must fire at
// the same row as the interpreter's.
func differentialAtoms() []string {
	var atoms []string
	ops := []string{"=", "!=", "<", "<=", ">", ">=", "LIKE"}
	literals := map[string][]string{
		"id":     {"40", "1e9", "'7'"},
		"name":   {"'a'", "'Stew'", "3"},
		"region": {"'ita'", "'JPN'", "'world'", "2"},
		"source": {"'epicurious'", "'AllRecipes'", "1.5"},
		"size":   {"9", "8.5", "9007199254740993", "'x'"},
		"score":  {"0.5", "0", "true"},
	}
	for _, f := range []string{"id", "name", "region", "source", "size", "score"} {
		for _, op := range ops {
			for _, lit := range literals[f] {
				atoms = append(atoms, fmt.Sprintf("%s %s %s", f, op, lit))
			}
		}
	}
	atoms = append(atoms,
		"'ITA' = region", "'fra' != region", "3 < size", "'Food Network' = source",
		"size > id", "name = region", "region < source", "size = category('spice')",
		"has('garlic') = true", "true != has('tomato')", "has('garlic') = has('onion')", "has('garlic') > false",
		"region IN ('ITA', 'FRA')", "region NOT IN ('ITA', 'usa')", "region IN ('ITA', 3)",
		"source IN ('Epicurious', 'tarladalal')", "size IN (3, 4, 5.0)", "size NOT IN (1, 'x')",
		"id IN (1, 2, 3, 500)", "name IN ('x', 'y')", "score IN (0, 1)", "has('salt') IN (1)",
		"has('garlic')", "has('tomato')", "has('saffron')", "has('onion')",
		"category('spice') > 2", "category('Spice') = 0", "category('vegetable') >= size",
		"9007199254740993 = 9007199254740992", "true", "false", "NOT size", "size AND has('garlic')", "has('garlic') OR size",
	)
	return atoms
}

// randomDifferentialStatement draws one statement: a predicate built from
// atoms with AND/OR/NOT (often as an indexable chain of region and has()
// conjuncts), wrapped in one of the executor shapes.
func randomDifferentialStatement(r *rand.Rand, atoms []string) string {
	atom := func() string { return atoms[r.Intn(len(atoms))] }
	regions := []string{"ITA", "jpn", "INSC", "USA", "FRA"}
	ings := []string{"garlic", "tomato", "onion", "saffron", "salt"}
	var pred func(depth int) string
	pred = func(depth int) string {
		if depth == 0 {
			return atom()
		}
		switch r.Intn(7) {
		case 0:
			return pred(depth-1) + " AND " + pred(depth-1)
		case 1:
			return pred(depth-1) + " OR " + pred(depth-1)
		case 2:
			return "NOT (" + pred(depth-1) + ")"
		case 3:
			return "(" + pred(depth-1) + ") AND region = '" + regions[r.Intn(len(regions))] + "'"
		case 4:
			return "has('" + ings[r.Intn(len(ings))] + "') AND (" + pred(depth-1) + ") AND has('" + ings[r.Intn(len(ings))] + "')"
		case 5:
			return "region = '" + regions[r.Intn(len(regions))] + "' AND has('" + ings[r.Intn(len(ings))] + "')"
		}
		return atom()
	}
	where := ""
	if r.Intn(8) != 0 {
		where = " WHERE " + pred(r.Intn(3))
	}
	fields := []string{"id", "name", "region", "source", "size", "score"}
	field := func() string { return fields[r.Intn(len(fields))] }
	limit := func() string {
		if r.Intn(2) == 0 {
			return ""
		}
		return fmt.Sprintf(" LIMIT %d", r.Intn(12))
	}
	dir := func() string { return []string{"", " ASC", " DESC"}[r.Intn(3)] }
	var stmt string
	switch r.Intn(6) {
	case 0:
		stmt = "SELECT id, name, region, source, size FROM recipes" + where + limit()
	case 1:
		f := field()
		stmt = "SELECT name, " + f + " FROM recipes" + where + " ORDER BY " + f + dir() + limit()
	case 2:
		stmt = "SELECT count(*), sum(size), avg(score), min(id), max(size), count(name) FROM recipes" + where
	case 3:
		g := field()
		stmt = "SELECT " + g + ", count(*), avg(size), sum(score) FROM recipes" + where + " GROUP BY " + g
		if r.Intn(2) == 0 {
			stmt += " ORDER BY count(*)" + dir() + limit()
		}
	case 4:
		stmt = "EXPLAIN SELECT id FROM recipes" + where
	default:
		stmt = "SELECT id, size FROM recipes" + where + " ORDER BY " + []string{"size", "id", "nope"}[r.Intn(3)] + dir() + limit()
	}
	return stmt
}

// sameResult reports how got differs from want, float bits and the
// nil-ness of Rows (null vs [] in JSON) included; "" when identical.
func sameResult(got, want *Result) string {
	if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
		return fmt.Sprintf("columns %v, want %v", got.Columns, want.Columns)
	}
	if got.Scanned != want.Scanned || got.Version != want.Version {
		return fmt.Sprintf("scanned/version %d/%d, want %d/%d", got.Scanned, got.Version, want.Scanned, want.Version)
	}
	if (got.Rows == nil) != (want.Rows == nil) || len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows (nil %v), want %d (nil %v)", len(got.Rows), got.Rows == nil, len(want.Rows), want.Rows == nil)
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Sprintf("row %d: %v, want %v", i, got.Rows[i], want.Rows[i])
		}
		for j, w := range want.Rows[i] {
			g := got.Rows[i][j]
			if g.Kind != w.Kind || g.Int != w.Int || g.Str != w.Str || g.Bool != w.Bool ||
				math.Float64bits(g.Float) != math.Float64bits(w.Float) {
				return fmt.Sprintf("row %d col %d: %#v, want %#v", i, j, g, w)
			}
		}
	}
	return ""
}

// checkDifferential runs stmt through the compiled engine (plan cache
// on, so later rounds reuse plans compiled at earlier versions) and the
// reference interpreter, and fails on any difference in result or
// error text.
func checkDifferential(t *testing.T, e *Engine, stmt string) (failed bool) {
	t.Helper()
	got, gotErr := e.Run(stmt)
	want, wantErr := e.referenceRun(stmt)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Errorf("%s\n  compiled err %v, reference err %v", stmt, gotErr, wantErr)
		return true
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s\n  compiled err %q\n  reference err %q", stmt, gotErr, wantErr)
			return true
		}
	default:
		if diff := sameResult(got, want); diff != "" {
			t.Errorf("%s\n  %s", stmt, diff)
			return true
		}
	}
	return false
}

// TestCompiledMatchesReference is the differential battery for the
// compiled executor: every atom alone, the equivalence battery's
// statements and a seeded stream of generated statements must give the
// reference interpreter's exact Columns, Rows (float bits), Scanned and
// error text — over several corpus versions, with inserts, deletes and
// region moves between them, and on an engine without an analyzer.
func TestCompiledMatchesReference(t *testing.T) {
	// A small corpus keeps the battery fast under -race; it still
	// holds every region and source.
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	analyzer := pairing.NewAnalyzer(catalog)
	cfg := synth.TestConfig()
	cfg.Scale = 0.03
	store, err := synth.Generate(analyzer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(store, analyzer) // result cache off: every Run executes
	bare := NewEngine(store, nil)
	atoms := differentialAtoms()
	fixed := append([]string{}, fuzzSeedStatements...)
	fixed = append(fixed, loadFuzzCorpusStatements(t)...)
	fixed = append(fixed, generatedPropertyStatements()...)
	for _, a := range atoms {
		fixed = append(fixed,
			"SELECT count(*), avg(size) FROM recipes WHERE "+a,
			"SELECT id, name FROM recipes WHERE "+a+" LIMIT 3",
			"SELECT region, count(*) FROM recipes WHERE "+a+" GROUP BY region")
	}
	fixed = append(fixed,
		"SELECT id FROM recipes WHERE size > 10 OR name > 5 LIMIT 1",
		"SELECT id FROM recipes WHERE size > 10 OR name > 5 ORDER BY id LIMIT 1",
		"SELECT id FROM recipes WHERE name > 5 LIMIT 0",
		"SELECT id FROM recipes WHERE name > 5 ORDER BY id LIMIT 0",
		"SELECT id FROM recipes WHERE name > 5 ORDER BY nope",
		"SELECT count(*) FROM recipes WHERE region = 'ITA' AND region = 'FRA'",
		"SELECT count(*) FROM recipes WHERE region = 'ITA' AND size",
		"SELECT count(*) FROM recipes WHERE has('garlic') AND has('garlic')",
		"SELECT count(*) FROM recipes WHERE has('garlic') AND (has('garlic') OR size > 30)",
		"SELECT count(*) FROM recipes WHERE region = 'ITA' AND (region = 'ITA' OR size > 30)",
		"SELECT count(*) FROM recipes WHERE has('garlic') AND NOT has('garlic')",
		"SELECT count(*) FROM recipes WHERE region = 'ıta'",
		"SELECT count(*) FROM recipes GROUP BY score",
		"SELECT score, count(*) FROM recipes GROUP BY score ORDER BY count(*) DESC LIMIT 20",
		"SELECT size, count(*) FROM recipes GROUP BY size",
		"SELECT id, name FROM recipes ORDER BY name DESC LIMIT 1000000",
		"SELECT name, score FROM recipes WHERE region = 'INSC' ORDER BY score DESC",
	)

	garlic, _ := store.Catalog().Lookup("garlic")
	tomato, _ := store.Catalog().Lookup("tomato")
	mutations := []func() error{
		func() error {
			_, _, _, err := store.Upsert(-1, "Differential Stew", recipedb.Italy, recipedb.Epicurious,
				[]flavor.ID{garlic, tomato})
			return err
		},
		func() error { _, err := store.Remove(3); return err },
		func() error {
			rec := store.Recipe(4)
			_, _, _, err := store.Upsert(4, rec.Name, recipedb.Japan, recipedb.TarlaDalal, rec.Ingredients)
			return err
		},
	}
	r := rand.New(rand.NewSource(15))
	generated := 400
	if testing.Short() {
		generated = 100
	}
	for round := 0; ; round++ {
		failures := 0
		stmts := append([]string{}, fixed...)
		for i := 0; i < generated; i++ {
			stmts = append(stmts, randomDifferentialStatement(r, atoms))
		}
		engines := []*Engine{e}
		if round == 0 {
			engines = append(engines, bare)
		}
		for _, stmt := range stmts {
			for _, eng := range engines {
				if checkDifferential(t, eng, stmt) {
					failures++
				}
			}
			if failures > 10 {
				t.Fatalf("round %d: stopping after %d differences", round, failures)
			}
		}
		if round == len(mutations) {
			break
		}
		if err := mutations[round](); err != nil {
			t.Fatal(err)
		}
	}
}
