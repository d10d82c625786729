package main

import (
	"fmt"
	"sort"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// opKind is one operation a client performs: a single read, or a write
// followed by the reads that check it.
type opKind int

const (
	opRecipeGet opKind = iota
	opRecipesPage
	opIngredientPairings
	opComplete
	opClassify
	opSearch
	opQuery
	opRegions
	opRegion
	opPairing
	opUpsert       // upsert by id onto a live slot, read back, search probe
	opCreateDelete // create, read back, probe, delete, probe
	opBatch        // 2-32 upserts by id in one batch, read back, probe
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"recipe_get", "recipes_page", "ingredient_pairings", "complete", "classify",
	"search", "query", "regions", "region", "pairing", "upsert", "create_delete", "batch",
}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated operation; every field is a pure function of the
// workload, the seed and the operation's index.
type op struct {
	Kind   opKind
	Region recipedb.Region
	ID     int
	Offset int
	// Text is the search text, the CQL statement, or the ingredient name.
	Text   string
	Mode   string // search: "all" or ""
	Fuzzy  bool
	Model  pairing.Model
	Ings   []string
	Writes []recipeReq
	// Token is the search term every recipe the op writes carries.
	Token string
}

// recipeReq is the wire body of one upsert.
type recipeReq struct {
	ID          *int     `json:"id,omitempty"`
	Name        string   `json:"name"`
	Region      string   `json:"region"`
	Source      string   `json:"source"`
	Ingredients []string `json:"ingredients"`
}

// vocab is the workload's vocabulary, harvested from the prepared
// corpus in a fixed order so that a seed alone decides the requests.
type vocab struct {
	regions     []recipedb.Region // major regions
	regionLen   map[recipedb.Region]int
	slotRegion  []recipedb.Region // region of every initial slot
	liveIDs     []int             // sorted
	ingredients []string          // every catalog ingredient, by ID
	profiled    []string          // ingredients with a flavor profile
	words       []string          // search words from ingredient names, sorted
	stmts       []string          // the fixed CQL statement set
}

func newVocab(store *recipedb.Store) *vocab {
	cat := store.Catalog()
	v := &vocab{regions: recipedb.MajorRegions(), regionLen: map[recipedb.Region]int{}}
	for _, r := range v.regions {
		v.regionLen[r] = store.RegionLen(r)
	}
	v.liveIDs = store.LiveIDs()
	v.slotRegion = make([]recipedb.Region, store.Slots())
	for _, id := range v.liveIDs {
		v.slotRegion[id] = store.Recipe(id).Region
	}
	seen := map[string]bool{}
	for i := 0; i < cat.Len(); i++ {
		ing := cat.Ingredient(flavor.ID(i))
		v.ingredients = append(v.ingredients, ing.Name)
		if ing.HasProfile {
			v.profiled = append(v.profiled, ing.Name)
		}
		for _, w := range strings.Fields(ing.Name) {
			if len(w) >= 3 && !seen[w] {
				seen[w] = true
				v.words = append(v.words, w)
			}
		}
	}
	sort.Strings(v.words)
	v.stmts = statementSet(store, v.regions)
	return v
}

// statementSet is the fixed CQL statement set: the same statements on
// every seed, so the result cache holds all of them after warm-up.
func statementSet(store *recipedb.Store, regions []recipedb.Region) []string {
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
	stmts := []string{
		"SELECT region, count(*) FROM recipes GROUP BY region",
		"SELECT source, count(*), avg(size) FROM recipes GROUP BY source",
	}
	for i := 0; i < 4 && i < len(uses); i++ {
		stmts = append(stmts, fmt.Sprintf("SELECT count(*) FROM recipes WHERE has('%s')", uses[i*5].name))
	}
	for i := 0; i < 4; i++ {
		r := regions[i*5%len(regions)].Code()
		stmts = append(stmts,
			fmt.Sprintf("SELECT avg(size) FROM recipes WHERE region = '%s'", r),
			fmt.Sprintf("SELECT name, size FROM recipes WHERE region = '%s' ORDER BY size DESC LIMIT 10", r))
	}
	for i := 0; i < 2 && i < len(uses); i++ {
		stmts = append(stmts, fmt.Sprintf("SELECT region, count(*) FROM recipes WHERE has('%s') GROUP BY region", uses[i*3+1].name))
	}
	return stmts
}

// generator maps an operation index to its operation. Operation kinds
// come in blocks: each block holds exactly the workload's deck, in a
// seeded order, so every run sends the same mix. Within a kind, the
// n-th operation of the run takes the n-th entry of a seeded shuffle
// of its list (regions, ids, statements), cycling, so costs that
// depend on the entry are spread evenly too.
type generator struct {
	seed  uint64
	deck  []opKind
	count [numOpKinds]int
	v     *vocab

	regions  []recipedb.Region
	ids      []int // recipe_get targets
	upserts  []int // upsert targets
	batches  []int // batch targets, disjoint from upserts
	profiled []string
	words    []string
	stmts    []string
	ings     []string
}

func newGenerator(deck []deckEntry, seed uint64, v *vocab) *generator {
	g := &generator{seed: seed, v: v}
	for _, e := range deck {
		for i := 0; i < e.N; i++ {
			g.deck = append(g.deck, e.Kind)
		}
		g.count[e.Kind] += e.N
	}
	src := rng.New(seed).Split(0x5eed)
	g.regions = shuffled(src, v.regions)
	g.ids = shuffled(src, v.liveIDs)
	slots := shuffled(src, v.liveIDs)
	g.upserts, g.batches = slots[:len(slots)/2], slots[len(slots)/2:]
	g.profiled = shuffled(src, v.profiled)
	g.words = shuffled(src, v.words)
	g.stmts = shuffled(src, v.stmts)
	g.ings = v.ingredients
	return g
}

func shuffled[T any](src *rng.Source, in []T) []T {
	out := append([]T(nil), in...)
	src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// op returns operation i.
func (g *generator) op(i int) op {
	block, pos := i/len(g.deck), i%len(g.deck)
	perm := rng.New(g.seed).Split(uint64(block)).Perm(len(g.deck))
	kind := g.deck[perm[pos]]
	rank := 0
	for p := 0; p < pos; p++ {
		if g.deck[perm[p]] == kind {
			rank++
		}
	}
	// ord numbers the operations of this kind across the whole run.
	ord := block*g.count[kind] + rank
	src := rng.New(g.seed).Split(1<<40 + uint64(i))
	o := op{Kind: kind}
	switch kind {
	case opRecipeGet:
		o.ID = g.ids[ord%len(g.ids)]
	case opRecipesPage:
		o.Region = g.regions[ord%len(g.regions)]
		if n := g.v.regionLen[o.Region] - pageLimit; n > 0 {
			o.Offset = src.Intn(n)
		}
	case opIngredientPairings:
		o.Text = g.profiled[ord%len(g.profiled)]
	case opComplete:
		// Complete suggests only for flavor-profiled ingredients.
		o.Region = g.regions[ord%len(g.regions)]
		o.Ings = distinct(src, g.profiled, 2+src.Intn(2))
	case opClassify:
		o.Ings = distinct(src, g.ings, 2+src.Intn(3))
	case opSearch:
		o.Text = g.words[ord%len(g.words)]
		if src.Intn(3) == 0 {
			o.Text += " " + g.words[src.Intn(len(g.words))]
			o.Mode = "all"
		}
		o.Fuzzy = src.Intn(4) == 0
	case opQuery:
		o.Text = g.stmts[ord%len(g.stmts)]
	case opRegions:
	case opRegion:
		o.Region = g.regions[ord%len(g.regions)]
	case opPairing:
		o.Region = g.regions[ord%len(g.regions)]
		o.Model = pairingModels[(ord/len(g.regions))%len(pairingModels)]
	case opUpsert:
		o.Token = token(i)
		o.Writes = []recipeReq{g.recipe(src, g.upserts[ord%len(g.upserts)], o.Token+" bench upsert")}
	case opCreateDelete:
		o.Token = token(i)
		o.Writes = []recipeReq{g.recipe(src, -1, o.Token+" bench create")}
	case opBatch:
		o.Token = token(i)
		n := 2 + src.Intn(31)
		for k := 0; k < n; k++ {
			slot := g.batches[(ord*maxBatch+k)%len(g.batches)]
			o.Writes = append(o.Writes, g.recipe(src, slot, fmt.Sprintf("%s bench batch item %d", o.Token, k)))
		}
	}
	return o
}

const (
	pageLimit = 20
	maxBatch  = 32
)

// pairingModels are the null models the pairing operations ask for;
// with the default null size every (region, model) pair is one
// reference result.
var pairingModels = []pairing.Model{pairing.RandomModel, pairing.FrequencyModel}

// recipe builds an upsert body. slot < 0 creates a recipe in a random
// region; an upsert keeps the slot's region so region sizes, and with
// them the cost of region aggregation, stay put.
func (g *generator) recipe(src *rng.Source, slot int, name string) recipeReq {
	region := g.regions[src.Intn(len(g.regions))]
	r := recipeReq{Name: name}
	if slot >= 0 {
		id := slot
		r.ID = &id
		region = g.v.slotRegion[slot]
	}
	r.Region = region.Code()
	r.Source = recipedb.Source(src.Intn(recipedb.NumSources)).String()
	r.Ingredients = distinct(src, g.ings, 3+src.Intn(6))
	return r
}

// distinct draws n distinct entries of list.
func distinct(src *rng.Source, list []string, n int) []string {
	out := make([]string, 0, n)
	for _, k := range src.SampleWithoutReplacement(len(list), n) {
		out = append(out, list[k])
	}
	return out
}

// token is a search term no corpus text contains: "zq", the index in
// base-26 letters, and an "x" no singular rule strips.
func token(i int) string {
	b := []byte("zq")
	for {
		b = append(b, 'a'+byte(i%26))
		i /= 26
		if i == 0 {
			break
		}
	}
	return string(append(b, 'x'))
}

// slots lists the recipe slots an operation writes by id.
func (o *op) slots() []int {
	var out []int
	for _, w := range o.Writes {
		if w.ID != nil {
			out = append(out, *w.ID)
		}
	}
	return out
}
