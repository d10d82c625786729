package recipedb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"culinary/internal/flavor"
	"culinary/internal/stats"
)

// Recipe is one traditional recipe reduced, as in §III.A, to an
// unordered list of catalog ingredient IDs plus provenance metadata.
type Recipe struct {
	// ID is the recipe's dense index within its Store.
	ID int
	// Name is the recipe title.
	Name string
	// Region is the geo-cultural region the recipe is annotated with.
	Region Region
	// Source records which recipe site the recipe came from.
	Source Source
	// Ingredients are catalog IDs; duplicates are not permitted.
	Ingredients []flavor.ID
	// Deleted marks a tombstoned slot: the recipe was removed but its
	// ID stays reserved so the corpus keeps dense, stable IDs. Deleted
	// recipes are absent from every index and skipped by iteration.
	Deleted bool
}

// Size returns the number of ingredients in the recipe.
func (r Recipe) Size() int { return len(r.Ingredients) }

// Contains reports whether the recipe uses the ingredient.
func (r Recipe) Contains(id flavor.ID) bool {
	for _, ing := range r.Ingredients {
		if ing == id {
			return true
		}
	}
	return false
}

// Store errors.
var (
	// ErrValidation wraps recipe validation failures.
	ErrValidation = errors.New("recipedb: invalid recipe")
	// ErrNoRecipe is returned by mutations addressing an absent slot.
	ErrNoRecipe = errors.New("recipedb: no such recipe")
)

// Backend persists individual recipe mutations. *storage.Store
// satisfies it; the interface lives here so recipedb does not import
// the storage engine (which imports recipedb for the snapshot codec).
type Backend interface {
	Put(key string, value []byte) error
	Delete(key string) error
}

// Mutation describes one applied corpus change, delivered to
// subscribers synchronously under the write lock. Old is the live
// recipe the mutation displaced (nil on insert), New the recipe now in
// the slot (nil on delete). Both are value copies whose Ingredients
// slices the store never writes again, so they may be read after
// delivery — but not mutated, since Old shares its slice with copies
// readers may hold.
type Mutation struct {
	// Version is the corpus version this mutation produced.
	Version uint64
	// ID is the slot the mutation addressed.
	ID  int
	Old *Recipe
	New *Recipe
}

// Subscribe registers fn to observe every subsequent mutation. Both
// init and the registration happen atomically under the write lock:
// init sees a consistent corpus snapshot and no mutation between that
// snapshot and the first fn delivery can be missed — the gap a
// derived index would otherwise have to re-scan for. Subscribers run
// synchronously inside the mutation critical section, so fn must be
// fast, must not call back into the Store, and must do its own locking
// against the subscriber's readers. init may be nil.
//
// When a write batch coalesces several mutations, fn is called once
// per mutation in version order; subscribers that can amortize
// per-batch work (one lock acquisition, one rebuild nudge) should use
// SubscribeBatch instead.
func (s *Store) Subscribe(init func(v *View), fn func(Mutation)) {
	s.SubscribeBatch(init, func(ms []Mutation) {
		for _, m := range ms {
			fn(m)
		}
	})
}

// SubscribeBatch is Subscribe for batch-aware consumers: fn receives
// every mutation of one coalesced write batch in a single call, still
// synchronously inside the mutation critical section and in version
// order (ms is sorted by Version, and successive calls never overlap
// or reorder). A single-item write delivers a one-element batch.
func (s *Store) SubscribeBatch(init func(v *View), fn func(ms []Mutation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if init != nil {
		init(&View{s: s, Version: s.version.Load()})
	}
	s.subs = append(s.subs, fn)
}

// notifyLocked delivers one batch of mutations to every subscriber.
// Callers hold s.mu exclusively and publish the atomic version only
// AFTER this returns, so lock-free Version() observers never see a
// version whose mutations a subscriber has not yet processed.
func (s *Store) notifyLocked(ms []Mutation) {
	if len(ms) == 0 {
		return
	}
	for _, fn := range s.subs {
		fn(ms)
	}
}

// Store is an in-memory recipe corpus with region and ingredient
// indexes. It is safe for concurrent use: reads take a shared lock,
// mutations (Add, Upsert, Remove) serialize behind an exclusive lock
// and bump an atomically-published corpus version. Multi-call readers
// that need one consistent (version, snapshot) pair — e.g. a full
// query execution — run inside Read.
type Store struct {
	mu      sync.RWMutex
	version atomic.Uint64

	catalog      *flavor.Catalog
	recipes      []Recipe
	live         int // slots minus tombstones
	byRegion     map[Region][]int
	byIngredient map[flavor.ID][]int
	// agg holds each region's running totals, World's pooling every
	// live recipe; see regionAgg.
	agg [numRegions]regionAgg

	// persist, when set, receives every mutation before the in-memory
	// state changes (write-through): a failed write leaves the corpus
	// untouched.
	persist Backend

	// subs are mutation subscribers, notified synchronously under the
	// write lock so derived state observes mutations in version order
	// and is current before the mutation is acknowledged. Each receives
	// one call per coalesced write batch.
	subs []func([]Mutation)

	// Writer fan-in (batch.go): writers queue ops into wpending and
	// race for wtok; the winner plans, persists and applies the whole
	// group. wgrouping is leader-private state (serialized by the
	// token), bstats is the coalescing telemetry for /api/health.
	wtok      chan struct{}
	wpendMu   sync.Mutex
	wpending  *writeGroup
	wgrouping bool
	bstats    batchStats
}

// NewStore creates an empty store bound to an ingredient catalog.
func NewStore(catalog *flavor.Catalog) *Store {
	s := &Store{
		catalog:      catalog,
		byRegion:     make(map[Region][]int),
		byIngredient: make(map[flavor.ID][]int),
		wtok:         make(chan struct{}, 1),
	}
	for r := range s.agg {
		s.agg[r].freq = make([]int32, catalog.Len())
	}
	return s
}

// SetBackend attaches a persistence backend. Subsequent mutations
// write through to it before updating the in-memory corpus. Writers
// that arrive concurrently coalesce into one backend batch (see
// batch.go); a Backend that also implements BatchBackend persists the
// whole group through one storage group commit.
func (s *Store) SetBackend(b Backend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persist = b
}

// Catalog returns the ingredient catalog the store is bound to. The
// catalog is immutable, so no locking applies.
func (s *Store) Catalog() *flavor.Catalog { return s.catalog }

// Version returns the corpus version: a counter bumped by every
// successful mutation. It is safe to read without any lock, so cache
// layers can fence entries against it cheaply.
func (s *Store) Version() uint64 { return s.version.Load() }

// SyncVersion raises the corpus version to at least v without changing
// any recipe. Replica followers use it to reconcile version accounting
// with the primary: some primary version bumps leave no replayable
// record (redundant-tombstone no-ops, and version numbering consumed
// by records a later compaction folded away), so after applying every
// shipped record up to the primary's published version V the follower
// calls SyncVersion(V) to land exactly on V. Subscribers receive one
// content-free Mutation{Version: v} (nil Old and New) so derived state
// that fences on the corpus version — the search index, the rebuild
// debouncers — advances its version stamp with it. Lower or equal v is
// a no-op.
func (s *Store) SyncVersion(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v <= s.version.Load() {
		return
	}
	s.notifyLocked([]Mutation{{Version: v}})
	s.version.Store(v)
}

// SyncSlots extends the slot table to at least n slots with tombstones,
// changing no live recipe and no version. The snapshot-reload path
// (storage.LoadCorpus) carries only live recipes, so a corpus whose
// highest slots were all tombstoned reloads short of the original slot
// bound; replica followers persist the bound alongside the version and
// restore it here so Slots(), Add's next-free-slot choice and
// CanonicalDump agree with the primary byte for byte. Lower or equal n
// is a no-op.
func (s *Store) SyncSlots(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.recipes) < n {
		s.recipes = append(s.recipes, Recipe{ID: len(s.recipes), Deleted: true})
	}
}

// View is a lock-free window onto the corpus, valid only inside the
// Read callback that produced it. Its accessors mirror the Store read
// API without re-locking, so a reader holding the view sees one
// consistent (Version, snapshot) pair for its whole critical section.
// Pointers obtained through a View must not escape the callback.
type View struct {
	s *Store
	// Version is the corpus version this view observes.
	Version uint64
}

// Read runs fn against a consistent snapshot of the corpus. The shared
// lock is held for the duration, so mutations observed by Version are
// fully excluded — fn sees the exact corpus state version v describes.
func (s *Store) Read(fn func(v *View)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(&View{s: s, Version: s.version.Load()})
}

// Len returns the number of live recipes.
func (v *View) Len() int { return v.s.live }

// Slots returns the recipe ID bound (live + tombstoned slots).
func (v *View) Slots() int { return len(v.s.recipes) }

// Recipe returns the recipe in slot id. The pointer is valid only
// inside the enclosing Read callback.
func (v *View) Recipe(id int) *Recipe { return &v.s.recipes[id] }

// IngredientRecipes returns the posting list of the ingredient in
// ascending-ID order. Do not mutate or retain past the callback.
func (v *View) IngredientRecipes(id flavor.ID) []int { return v.s.byIngredient[id] }

// RegionLen returns the number of live recipes in the region; World
// counts every live recipe.
func (v *View) RegionLen(r Region) int {
	if r == World {
		return v.s.live
	}
	return len(v.s.byRegion[r])
}

// ForEachInRegion calls fn for every live recipe in the region (every
// live recipe when r == World), in ascending-ID order.
func (v *View) ForEachInRegion(r Region, fn func(*Recipe)) {
	v.s.forEachInRegionLocked(r, fn)
}

// Catalog returns the (immutable) ingredient catalog.
func (v *View) Catalog() *flavor.Catalog { return v.s.catalog }

// LiveIDs returns the IDs of every live recipe, ascending.
func (v *View) LiveIDs() []int { return v.s.liveIDsLocked() }

// Regions returns the regions with at least one live recipe, sorted.
func (v *View) Regions() []Region { return v.s.regionsLocked() }

// BuildCuisine assembles the region's analytical view against this
// snapshot; World pools every recipe. The result is self-contained and
// safe to retain past the callback.
func (v *View) BuildCuisine(r Region) *Cuisine { return v.s.buildCuisineLocked(r) }

// IngredientLists is Store.IngredientLists against this snapshot. The
// inner slices are never written in place, so unlike other View
// results they may be kept, read-only, after the callback returns.
func (v *View) IngredientLists(ids []int) [][]flavor.ID { return v.s.ingredientListsLocked(ids) }

// RegionSummary returns the region's running totals in O(1).
func (v *View) RegionSummary(r Region) RegionSummary {
	a := v.s.aggLocked(r)
	return RegionSummary{Recipes: a.recipes, UniqueIngredients: a.unique, SizeSum: a.sizeSum}
}

// TopIngredients returns the region's k most used ingredients in the
// order Cuisine.TopIngredients gives, in O(catalog·k) without building
// the cuisine.
func (v *View) TopIngredients(r Region, k int) []flavor.ID {
	t := newTopK(k)
	for id, n := range v.s.aggLocked(r).freq {
		if n > 0 {
			t.offer(flavor.ID(id), int(n))
		}
	}
	return t.ids
}

// CategoryUsage is Store.CategoryUsage against this snapshot.
func (v *View) CategoryUsage(r Region) []float64 { return v.s.categoryUsageLocked(r) }

// RegionPage returns the IDs of the region's live recipes at positions
// [offset, offset+limit) of its ascending-ID order (World: of every
// live recipe). A region's page is a slice of its posting list, so do
// not mutate it; World walks the slots only until the page is full.
func (v *View) RegionPage(r Region, offset, limit int) []int {
	offset, limit = max(offset, 0), max(limit, 0)
	if r != World {
		ids := v.s.byRegion[r]
		lo := min(offset, len(ids))
		return ids[lo : lo+min(limit, len(ids)-lo)]
	}
	var out []int
	for i := range v.s.recipes {
		if len(out) == limit {
			break
		}
		if v.s.recipes[i].Deleted {
			continue
		}
		if offset > 0 {
			offset--
			continue
		}
		out = append(out, i)
	}
	return out
}

// forEachInRegionLocked iterates live recipes; callers hold s.mu.
func (s *Store) forEachInRegionLocked(r Region, fn func(*Recipe)) {
	if r == World {
		for i := range s.recipes {
			if !s.recipes[i].Deleted {
				fn(&s.recipes[i])
			}
		}
		return
	}
	for _, id := range s.byRegion[r] {
		fn(&s.recipes[id])
	}
}

// validate enforces the corpus invariants: a known region and source,
// at least two ingredients (a pairing analysis needs pairs), no
// duplicate ingredients, and every ingredient ID within the catalog.
func (s *Store) validate(name string, region Region, source Source, ingredients []flavor.ID) error {
	if !region.Valid() || region == World {
		return fmt.Errorf("%w: bad region %d", ErrValidation, region)
	}
	if !source.Valid() {
		return fmt.Errorf("%w: bad source %d", ErrValidation, source)
	}
	if len(ingredients) < 2 {
		return fmt.Errorf("%w: recipe %q has %d ingredients, need >= 2", ErrValidation, name, len(ingredients))
	}
	seen := make(map[flavor.ID]struct{}, len(ingredients))
	for _, id := range ingredients {
		if id < 0 || int(id) >= s.catalog.Len() {
			return fmt.Errorf("%w: recipe %q ingredient %d outside catalog", ErrValidation, name, id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w: recipe %q repeats ingredient %q", ErrValidation, name, s.catalog.Ingredient(id).Name)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// Add validates and appends a recipe, returning its assigned ID.
func (s *Store) Add(name string, region Region, source Source, ingredients []flavor.ID) (int, error) {
	id, _, _, err := s.Upsert(-1, name, region, source, ingredients)
	return id, err
}

// Upsert inserts or replaces one recipe and returns its ID, the new
// corpus version, and whether a new live recipe was created (false
// means a live recipe was replaced; the flag is decided inside the
// write critical section, so it is race-free). id < 0 assigns the next
// free slot; id < Slots() replaces that slot (reviving it if
// tombstoned); id >= Slots() extends the corpus, tombstoning any
// intermediate slots — the sparse-snapshot reload path. When a Backend
// is attached the mutation is persisted first; a persistence error
// leaves the in-memory corpus unchanged. Concurrent callers coalesce
// through the writer fan-in (batch.go) into one critical section and
// one backend group commit.
func (s *Store) Upsert(id int, name string, region Region, source Source, ingredients []flavor.ID) (int, uint64, bool, error) {
	op := &writeOp{
		id: id, name: name, region: region, source: source,
		ingredients: append([]flavor.ID(nil), ingredients...),
	}
	s.submitOps([]*writeOp{op})
	if op.err != nil {
		return 0, 0, false, op.err
	}
	return op.outID, op.version, op.outcome == OutcomeCreated, nil
}

// Remove tombstones the recipe in slot id and returns the new corpus
// version. The slot stays reserved so later recipe IDs keep their
// meaning. Persistence, when attached, happens first. Like Upsert,
// concurrent Removes coalesce through the writer fan-in.
func (s *Store) Remove(id int) (uint64, error) {
	op := &writeOp{remove: true, id: id}
	s.submitOps([]*writeOp{op})
	if op.err != nil {
		return 0, op.err
	}
	return op.version, nil
}

// indexLocked adds rec's ID to the region and ingredient posting
// lists and rec to its region's and World's aggregates. Lists are
// copy-on-write: readers that fetched a list under the shared lock keep
// a consistent (if stale) array.
func (s *Store) indexLocked(rec *Recipe) {
	s.byRegion[rec.Region] = insertSorted(s.byRegion[rec.Region], rec.ID)
	for _, ing := range rec.Ingredients {
		s.byIngredient[ing] = insertSorted(s.byIngredient[ing], rec.ID)
	}
	s.aggregateLocked(rec, +1)
}

// unindexLocked removes rec's ID from every posting list it is on and
// rec from its region's and World's aggregates.
func (s *Store) unindexLocked(rec *Recipe) {
	s.byRegion[rec.Region] = removeSorted(s.byRegion[rec.Region], rec.ID)
	for _, ing := range rec.Ingredients {
		s.byIngredient[ing] = removeSorted(s.byIngredient[ing], rec.ID)
	}
	s.aggregateLocked(rec, -1)
}

// regionAgg is one region's running totals over its live recipes: the
// sums the paper's per-region tables are made of. indexLocked and
// unindexLocked keep it current at O(ingredients) per mutation, so no
// read has to scan the region for them.
type regionAgg struct {
	recipes int
	// sizeSum is the total recipe size, which is also the number of
	// recipe-ingredient incidences.
	sizeSum int
	// freq[id] counts the recipes using ingredient id; unique counts
	// its nonzero entries.
	freq   []int32
	unique int
	// category[c] counts the incidences whose ingredient is in
	// category c.
	category [flavor.NumCategories]int
}

// aggregateLocked adds (d = +1) or removes (d = -1) rec's contribution
// to its region's and World's aggregates. Callers hold s.mu exclusively.
func (s *Store) aggregateLocked(rec *Recipe, d int) {
	for _, a := range [2]*regionAgg{&s.agg[rec.Region], &s.agg[World]} {
		a.recipes += d
		a.sizeSum += d * len(rec.Ingredients)
		for _, ing := range rec.Ingredients {
			old := a.freq[ing]
			a.freq[ing] = old + int32(d)
			if old == 0 || a.freq[ing] == 0 {
				a.unique += d
			}
			a.category[s.catalog.Ingredient(ing).Category] += d
		}
	}
}

// noAgg is the (empty) aggregate of a region outside the table.
var noAgg regionAgg

// aggLocked returns r's aggregate; callers hold s.mu.
func (s *Store) aggLocked(r Region) *regionAgg {
	if !r.Valid() {
		return &noAgg
	}
	return &s.agg[r]
}

// RegionSummary is a region's running totals: its Table 1 row and the
// size total behind its mean recipe size.
type RegionSummary struct {
	Recipes           int
	UniqueIngredients int
	// SizeSum is the total size of the region's recipes.
	SizeSum int
}

// MeanSize returns the mean recipe size, 0 for an empty region. It is
// bit-identical to the cuisine's SizeHistogram().Mean(): both divide
// the same integer total by the same count.
func (r RegionSummary) MeanSize() float64 {
	if r.Recipes == 0 {
		return 0
	}
	return float64(r.SizeSum) / float64(r.Recipes)
}

// insertSorted returns an ascending list with id added (idempotent).
// Appending past the tail may reuse spare capacity: that slot is beyond
// every published length, so concurrent readers of older headers never
// see it. Mid-list inserts copy, and removeSorted always copies, so an
// array a reader holds is never rewritten below its length.
func insertSorted(list []int, id int) []int {
	if len(list) == 0 || id > list[len(list)-1] {
		return append(list, id) // corpus build: IDs arrive ascending
	}
	i := sort.SearchInts(list, id)
	if i < len(list) && list[i] == id {
		return list
	}
	out := make([]int, 0, len(list)+1)
	out = append(out, list[:i]...)
	out = append(out, id)
	return append(out, list[i:]...)
}

// removeSorted returns a fresh list with id removed (idempotent).
func removeSorted(list []int, id int) []int {
	i := sort.SearchInts(list, id)
	if i >= len(list) || list[i] != id {
		return list
	}
	out := make([]int, 0, len(list)-1)
	out = append(out, list[:i]...)
	return append(out, list[i+1:]...)
}

// IngredientRecipes returns the IDs of live recipes containing the
// ingredient, in ascending-ID order. The slice is copy-on-write under
// mutation; do not mutate it.
func (s *Store) IngredientRecipes(id flavor.ID) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byIngredient[id]
}

// Len returns the number of live recipes.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Slots returns the recipe ID bound: live recipes plus tombstoned
// slots. Recipe accepts any id in [0, Slots()).
func (s *Store) Slots() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recipes)
}

// Recipe returns a copy of the recipe in slot id (check Deleted when
// the corpus may have been mutated). The copy's Ingredients slice is
// never written again by the store, so it is safe to read after the
// call returns.
func (s *Store) Recipe(id int) Recipe {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recipes[id]
}

// IngredientLists returns the ingredient lists of the given recipes
// under one shared-lock acquisition — the bulk accessor for analysis
// loops that would otherwise lock per recipe. The inner slices are the
// store's own: mutations never write them in place (Upsert installs
// fresh slices), so they are safe to read after the call, but must not
// be mutated. They describe the corpus as of this call.
func (s *Store) IngredientLists(ids []int) [][]flavor.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ingredientListsLocked(ids)
}

func (s *Store) ingredientListsLocked(ids []int) [][]flavor.ID {
	out := make([][]flavor.ID, len(ids))
	for i, id := range ids {
		out[i] = s.recipes[id].Ingredients
	}
	return out
}

// LiveIDs returns the IDs of every live recipe, ascending.
func (s *Store) LiveIDs() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveIDsLocked()
}

func (s *Store) liveIDsLocked() []int {
	out := make([]int, 0, s.live)
	for i := range s.recipes {
		if !s.recipes[i].Deleted {
			out = append(out, i)
		}
	}
	return out
}

// RegionLen returns the number of live recipes in the region; World
// counts every live recipe.
func (s *Store) RegionLen(r Region) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r == World {
		return s.live
	}
	return len(s.byRegion[r])
}

// Regions returns the regions present in the store, sorted.
func (s *Store) Regions() []Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.regionsLocked()
}

func (s *Store) regionsLocked() []Region {
	var out []Region
	for r := Region(0); r < World; r++ {
		if s.agg[r].recipes > 0 {
			out = append(out, r)
		}
	}
	return out
}

// ForEachInRegion calls fn for every live recipe in the region (every
// live recipe when r == World), in ascending-ID order. The shared lock
// is held across the iteration: fn must not call mutating methods, and
// the *Recipe must not be retained past the callback.
func (s *Store) ForEachInRegion(r Region, fn func(*Recipe)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.forEachInRegionLocked(r, fn)
}

// RegionRecipes returns the live recipe IDs of a region. The slice is
// copy-on-write under mutation; do not mutate it. World returns nil
// (iterate instead).
func (s *Store) RegionRecipes(r Region) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r == World {
		return nil
	}
	return s.byRegion[r]
}

// Cuisine is the per-region analytical view used by the pairing package
// and the experiment drivers: the recipes of one region plus cached
// statistics.
type Cuisine struct {
	Region Region
	// RecipeIDs indexes into the parent store.
	RecipeIDs []int
	// Sizes[i] is the ingredient count of recipe RecipeIDs[i].
	Sizes []int
	// IngredientFreq maps each used ingredient to its recipe count.
	IngredientFreq map[flavor.ID]int
	// UniqueIngredients is the sorted set of ingredients used.
	UniqueIngredients []flavor.ID
}

// BuildCuisine assembles the analytical view of a region; World pools
// every recipe. The view is a self-contained snapshot: later store
// mutations do not alter it (though its RecipeIDs then describe the
// corpus as of the build). It costs O(region recipes) for RecipeIDs and
// Sizes plus O(catalog) for the frequencies, which come from the
// region's running aggregate rather than from its recipes.
func (s *Store) BuildCuisine(r Region) *Cuisine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.buildCuisineLocked(r)
}

func (s *Store) buildCuisineLocked(r Region) *Cuisine {
	a := s.aggLocked(r)
	c := &Cuisine{
		Region:            r,
		RecipeIDs:         make([]int, 0, a.recipes),
		Sizes:             make([]int, 0, a.recipes),
		IngredientFreq:    make(map[flavor.ID]int, a.unique),
		UniqueIngredients: make([]flavor.ID, 0, a.unique),
	}
	s.forEachInRegionLocked(r, func(rec *Recipe) {
		c.RecipeIDs = append(c.RecipeIDs, rec.ID)
		c.Sizes = append(c.Sizes, rec.Size())
	})
	// Ascending-ID iteration yields UniqueIngredients already sorted.
	for id, n := range a.freq {
		if n > 0 {
			c.IngredientFreq[flavor.ID(id)] = int(n)
			c.UniqueIngredients = append(c.UniqueIngredients, flavor.ID(id))
		}
	}
	return c
}

// NumRecipes returns the cuisine's recipe count.
func (c *Cuisine) NumRecipes() int { return len(c.RecipeIDs) }

// NumUniqueIngredients returns the count of distinct ingredients used.
func (c *Cuisine) NumUniqueIngredients() int { return len(c.UniqueIngredients) }

// SizeHistogram returns the recipe-size distribution (Fig 3a input).
func (c *Cuisine) SizeHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for _, sz := range c.Sizes {
		h.Add(sz)
	}
	return h
}

// FrequencyVector returns ingredient use counts aligned with
// UniqueIngredients order.
func (c *Cuisine) FrequencyVector() []int {
	out := make([]int, len(c.UniqueIngredients))
	for i, id := range c.UniqueIngredients {
		out[i] = c.IngredientFreq[id]
	}
	return out
}

// TopIngredients returns the k most frequently used ingredients in
// descending frequency order (ties break by ID for determinism).
func (c *Cuisine) TopIngredients(k int) []flavor.ID {
	t := newTopK(k)
	for _, id := range c.UniqueIngredients {
		t.offer(id, c.IngredientFreq[id])
	}
	return t.ids
}

// topK keeps the k most used ingredients offered so far, by descending
// count with ties broken by ascending ID. Offers must come in
// ascending-ID order, so a newcomer ranks after every kept equal.
type topK struct {
	ids []flavor.ID
	n   []int
}

func newTopK(k int) *topK {
	k = max(k, 0)
	return &topK{ids: make([]flavor.ID, 0, k), n: make([]int, 0, k)}
}

func (t *topK) offer(id flavor.ID, n int) {
	i := sort.Search(len(t.n), func(i int) bool { return t.n[i] < n })
	if i == cap(t.ids) {
		return
	}
	if len(t.ids) < cap(t.ids) {
		t.ids, t.n = append(t.ids, 0), append(t.n, 0)
	}
	copy(t.ids[i+1:], t.ids[i:])
	copy(t.n[i+1:], t.n[i:])
	t.ids[i], t.n[i] = id, n
}

// CategoryUsage computes, for each of the 21 categories, the fraction of
// ingredient slots (recipe-ingredient incidences) in the cuisine that
// fall in the category — the rows of the Fig 2 heatmap. It reads the
// region's running aggregate: O(categories), independent of the corpus.
func (s *Store) CategoryUsage(r Region) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.categoryUsageLocked(r)
}

func (s *Store) categoryUsageLocked(r Region) []float64 {
	a := s.aggLocked(r)
	out := make([]float64, flavor.NumCategories)
	if a.sizeSum == 0 {
		return out
	}
	for i, c := range a.category {
		out[i] = float64(c) / float64(a.sizeSum)
	}
	return out
}

// SourceCounts tallies live recipes per source across the whole store.
func (s *Store) SourceCounts() map[Source]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Source]int, NumSources)
	for i := range s.recipes {
		if !s.recipes[i].Deleted {
			out[s.recipes[i].Source]++
		}
	}
	return out
}
