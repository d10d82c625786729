package main

import (
	"encoding/json"
	"fmt"
	"reflect"

	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// nullRecipes is cmd/server's default -null, the null-model size of
// every pairing request the workloads send.
const nullRecipes = 2000

// checker validates response bodies. Every 2xx body must parse into the
// shape its route documents; with a reference, read responses must also
// equal what the prepared corpus answers in process.
type checker struct {
	ref *reference
}

// reference holds the answers of the prepared corpus, computed in
// process before any request is sent.
type reference struct {
	store   *recipedb.Store
	pairing map[pairKey]pairing.Result
	queries map[string]queryRows
}

type pairKey struct {
	region recipedb.Region
	model  pairing.Model
}

type queryRows struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// newReference computes, for every (region, model) the workload asks
// for, the pairing result exactly as the server computes it:
// pairing.Compare over store.BuildCuisine(r) with the region's split of
// the master seed, and the rows of every statement of the fixed set.
func newReference(store *recipedb.Store, analyzer *pairing.Analyzer, v *vocab) (*reference, error) {
	ref := &reference{store: store, pairing: map[pairKey]pairing.Result{}, queries: map[string]queryRows{}}
	for _, r := range v.regions {
		for _, m := range pairingModels {
			res, err := pairing.Compare(analyzer, store, store.BuildCuisine(r), m, nullRecipes, rng.New(corpusSeed).Split(uint64(r)))
			if err != nil {
				return nil, fmt.Errorf("reference pairing %s/%s: %w", r.Code(), m, err)
			}
			ref.pairing[pairKey{r, m}] = res
		}
	}
	engine := query.NewEngine(store, analyzer)
	for _, stmt := range v.stmts {
		res, err := engine.Run(stmt)
		if err != nil {
			return nil, fmt.Errorf("reference query %q: %w", stmt, err)
		}
		rows := queryRows{Columns: res.Columns, Rows: make([][]string, len(res.Rows))}
		for i, row := range res.Rows {
			for _, cell := range row {
				rows.Rows[i] = append(rows.Rows[i], cell.String())
			}
		}
		ref.queries[stmt] = rows
	}
	return ref, nil
}

func decode(rep reply, v any) error {
	if err := json.Unmarshal(rep.body, v); err != nil {
		return fmt.Errorf("unparseable body: %v", err)
	}
	return nil
}

// read checks the reply to read operation o.
func (ch *checker) read(o op, rep reply, rec *recorder) error {
	switch o.Kind {
	case opRecipeGet:
		var got struct {
			Recipe recipeJSON `json:"recipe"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if got.Recipe.ID != o.ID || got.Recipe.Name == "" {
			return fmt.Errorf("recipe %d answered %+v", o.ID, got.Recipe)
		}
		if ch.ref != nil {
			r := ch.ref.store.Recipe(o.ID)
			cat := ch.ref.store.Catalog()
			want := recipeJSON{ID: o.ID, Name: r.Name, Region: r.Region.Code(), Source: r.Source.String()}
			for _, id := range r.Ingredients {
				want.Ingredients = append(want.Ingredients, cat.Ingredient(id).Name)
			}
			if !reflect.DeepEqual(got.Recipe, want) {
				return fmt.Errorf("recipe %d reads %+v, reference %+v", o.ID, got.Recipe, want)
			}
		}
	case opRecipesPage:
		var got struct {
			Total   int          `json:"total"`
			Offset  int          `json:"offset"`
			Recipes []recipeJSON `json:"recipes"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if got.Offset != o.Offset || len(got.Recipes) > pageLimit {
			return fmt.Errorf("page at offset %d answered offset %d with %d recipes", o.Offset, got.Offset, len(got.Recipes))
		}
		for _, r := range got.Recipes {
			if r.Region != o.Region.Code() {
				return fmt.Errorf("page of %s holds recipe %d of %s", o.Region.Code(), r.ID, r.Region)
			}
		}
		if ch.ref != nil {
			total := ch.ref.store.RegionLen(o.Region)
			if got.Total != total || len(got.Recipes) != min(pageLimit, total-o.Offset) {
				return fmt.Errorf("page of %s: total %d with %d recipes, reference total %d", o.Region.Code(), got.Total, len(got.Recipes), total)
			}
		}
	case opIngredientPairings:
		var got struct {
			Ingredient string `json:"ingredient"`
			Pairings   []struct {
				Name string `json:"name"`
			} `json:"pairings"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if got.Ingredient != o.Text || len(got.Pairings) == 0 {
			return fmt.Errorf("pairings of %q answered %q with %d partners", o.Text, got.Ingredient, len(got.Pairings))
		}
	case opComplete:
		var got struct {
			Region      string            `json:"region"`
			Suggestions []json.RawMessage `json:"suggestions"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if got.Region != o.Region.Code() {
			return fmt.Errorf("complete for %s answered %s", o.Region.Code(), got.Region)
		}
	case opClassify:
		var got struct {
			Predictions []struct {
				Region string `json:"region"`
			} `json:"predictions"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if len(got.Predictions) == 0 {
			return fmt.Errorf("classify answered no predictions")
		}
	case opSearch:
		hits, err := ch.searchHits(rep, rec)
		if err != nil {
			return err
		}
		if len(hits) > 10 {
			return fmt.Errorf("search with limit 10 answered %d hits", len(hits))
		}
	case opQuery:
		var got struct {
			queryRows
			Scanned int    `json:"scanned"`
			Version uint64 `json:"version"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		rec.mu.Lock()
		rec.scanned += int64(got.Scanned)
		rec.rows += int64(len(got.Rows))
		if got.Version != rep.version {
			rec.torn++
		}
		rec.mu.Unlock()
		if ch.ref != nil && !reflect.DeepEqual(got.queryRows, ch.ref.queries[o.Text]) {
			return fmt.Errorf("query %q answered %v, reference %v", o.Text, got.queryRows, ch.ref.queries[o.Text])
		}
	case opRegions:
		var got []struct {
			Code    string `json:"code"`
			Recipes int    `json:"recipes"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if len(got) != len(recipedb.MajorRegions()) {
			return fmt.Errorf("regions answered %d regions", len(got))
		}
		if ch.ref != nil {
			for _, g := range got {
				r, err := recipedb.ParseRegion(g.Code)
				if err != nil || g.Recipes != ch.ref.store.RegionLen(r) {
					return fmt.Errorf("regions: %s has %d recipes, reference %d", g.Code, g.Recipes, ch.ref.store.RegionLen(r))
				}
			}
		}
	case opRegion:
		var got struct {
			Code    string `json:"code"`
			Recipes int    `json:"recipes"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if got.Code != o.Region.Code() {
			return fmt.Errorf("region %s answered %s", o.Region.Code(), got.Code)
		}
		if ch.ref != nil && got.Recipes != ch.ref.store.RegionLen(o.Region) {
			return fmt.Errorf("region %s has %d recipes, reference %d", got.Code, got.Recipes, ch.ref.store.RegionLen(o.Region))
		}
	case opPairing:
		var got struct {
			Region   string  `json:"region"`
			Model    string  `json:"model"`
			Observed float64 `json:"observed"`
			NullMean float64 `json:"nullMean"`
			NullStd  float64 `json:"nullStd"`
			NRandom  int     `json:"nRandom"`
			Z        float64 `json:"z"`
		}
		if err := decode(rep, &got); err != nil {
			return err
		}
		if got.Region != o.Region.Code() || got.Model != o.Model.String() {
			return fmt.Errorf("pairing %s/%s answered %s/%s", o.Region.Code(), o.Model, got.Region, got.Model)
		}
		if ch.ref != nil {
			want := ch.ref.pairing[pairKey{o.Region, o.Model}]
			if got.Observed != want.Observed || got.NullMean != want.NullMean || got.NullStd != want.NullStd ||
				got.NRandom != want.NRandom || got.Z != want.Z {
				return fmt.Errorf("pairing %s/%s answered %+v, reference %v", got.Region, got.Model, got, want)
			}
		}
	default:
		return fmt.Errorf("no read check for %v", o.Kind)
	}
	return nil
}

// searchHits decodes a search reply. A reply whose header version
// differs from its body version, or whose hits render a deleted recipe,
// is torn: counted, not failed, because it is a known defect of the
// server rather than of the request.
func (ch *checker) searchHits(rep reply, rec *recorder) ([]recipeJSON, error) {
	var got struct {
		Hits []struct {
			Recipe recipeJSON `json:"recipe"`
		} `json:"hits"`
		Version uint64 `json:"version"`
	}
	if err := decode(rep, &got); err != nil {
		return nil, err
	}
	torn := got.Version != rep.version
	out := make([]recipeJSON, len(got.Hits))
	for i, h := range got.Hits {
		out[i] = h.Recipe
		torn = torn || h.Recipe.Name == ""
	}
	if torn {
		rec.mu.Lock()
		rec.torn++
		rec.mu.Unlock()
	}
	return out, nil
}
