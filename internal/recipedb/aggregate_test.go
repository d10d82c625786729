package recipedb_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
)

var aggCatalog = func() *flavor.Catalog {
	c, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return c
}()

// scanRegion is the scan-based reference the per-region aggregates must
// reproduce: it rebuilds a region's cuisine, category usage and summary
// by walking every live recipe of the region, as the store did before it
// kept running totals.
type scanRegion struct {
	cuisine *recipedb.Cuisine
	usage   []float64
	summary recipedb.RegionSummary
	mean    float64
	top     []flavor.ID
}

func scanReference(s *recipedb.Store, r recipedb.Region) scanRegion {
	c := &recipedb.Cuisine{Region: r, IngredientFreq: map[flavor.ID]int{}}
	counts := make([]int, flavor.NumCategories)
	total := 0
	s.ForEachInRegion(r, func(rec *recipedb.Recipe) {
		c.RecipeIDs = append(c.RecipeIDs, rec.ID)
		c.Sizes = append(c.Sizes, rec.Size())
		for _, id := range rec.Ingredients {
			c.IngredientFreq[id]++
			counts[aggCatalog.Ingredient(id).Category]++
			total++
		}
	})
	for id := range c.IngredientFreq {
		c.UniqueIngredients = append(c.UniqueIngredients, id)
	}
	sort.Slice(c.UniqueIngredients, func(i, j int) bool { return c.UniqueIngredients[i] < c.UniqueIngredients[j] })
	usage := make([]float64, flavor.NumCategories)
	for i, n := range counts {
		if total > 0 {
			usage[i] = float64(n) / float64(total)
		}
	}
	top := append([]flavor.ID{}, c.UniqueIngredients...)
	sort.Slice(top, func(i, j int) bool {
		fi, fj := c.IngredientFreq[top[i]], c.IngredientFreq[top[j]]
		if fi != fj {
			return fi > fj
		}
		return top[i] < top[j]
	})
	return scanRegion{
		cuisine: c,
		usage:   usage,
		summary: recipedb.RegionSummary{Recipes: len(c.RecipeIDs), UniqueIngredients: len(c.UniqueIngredients), SizeSum: total},
		mean:    c.SizeHistogram().Mean(),
		top:     top[:min(10, len(top))],
	}
}

// sameInts compares two int-like slices, an empty slice equal to nil.
func sameInts[T ~int](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkAggregates asserts that every aggregate-served read equals the
// scan-based reference, for every region and World.
func checkAggregates(t *testing.T, s *recipedb.Store, step string) {
	t.Helper()
	regions := append(recipedb.AllRegions(), recipedb.World)
	for _, r := range regions {
		want := scanReference(s, r)
		got := s.BuildCuisine(r)
		if got.Region != r || !sameInts(got.RecipeIDs, want.cuisine.RecipeIDs) || !sameInts(got.Sizes, want.cuisine.Sizes) ||
			!sameInts(got.UniqueIngredients, want.cuisine.UniqueIngredients) ||
			!reflect.DeepEqual(got.IngredientFreq, want.cuisine.IngredientFreq) {
			t.Fatalf("%s: BuildCuisine(%s) = %+v, scan %+v", step, r, got, want.cuisine)
		}
		if usage := s.CategoryUsage(r); !reflect.DeepEqual(usage, want.usage) {
			t.Fatalf("%s: CategoryUsage(%s) = %v, scan %v", step, r, usage, want.usage)
		}
		if top := got.TopIngredients(10); !sameInts(top, want.top) {
			t.Fatalf("%s: Cuisine.TopIngredients(%s) = %v, scan %v", step, r, top, want.top)
		}
		s.Read(func(v *recipedb.View) {
			if sum := v.RegionSummary(r); sum != want.summary || sum.MeanSize() != want.mean {
				t.Fatalf("%s: RegionSummary(%s) = %+v mean %v, scan %+v mean %v", step, r, sum, sum.MeanSize(), want.summary, want.mean)
			}
			if top := v.TopIngredients(r, 10); !sameInts(top, want.top) {
				t.Fatalf("%s: View.TopIngredients(%s) = %v, scan %v", step, r, top, want.top)
			}
			if usage := v.CategoryUsage(r); !reflect.DeepEqual(usage, want.usage) {
				t.Fatalf("%s: View.CategoryUsage(%s) = %v, scan %v", step, r, usage, want.usage)
			}
		})
	}
	var present []recipedb.Region
	for _, r := range recipedb.AllRegions() {
		if s.RegionLen(r) > 0 {
			present = append(present, r)
		}
	}
	if got := s.Regions(); !sameInts(got, present) {
		t.Fatalf("%s: Regions() = %v, scan %v", step, got, present)
	}
}

// randomIngredients draws n distinct catalog IDs from a small pool, so
// regions share ingredients and counts climb above one.
func randomIngredients(rnd *rand.Rand, n int) []flavor.ID {
	pool := min(60, aggCatalog.Len())
	out := make([]flavor.ID, 0, n)
	for _, i := range rnd.Perm(pool)[:n] {
		out = append(out, flavor.ID(i))
	}
	return out
}

func randomRegion(rnd *rand.Rand) recipedb.Region {
	all := recipedb.AllRegions()
	return all[rnd.Intn(len(all))]
}

// liveAndDead returns the store's live and tombstoned slot IDs.
func liveAndDead(s *recipedb.Store) (live, dead []int) {
	for id := 0; id < s.Slots(); id++ {
		if s.Recipe(id).Deleted {
			dead = append(dead, id)
		} else {
			live = append(live, id)
		}
	}
	return live, dead
}

// TestRegionAggregatesMatchScan applies seeded random mutation
// sequences — inserts, upserts moving a recipe to another region,
// deletes, tombstone revivals, gap slots, SyncSlots, coalesced batches
// with rejected and kept items, and a snapshot reload — and checks the
// aggregate-served reads against a region scan after every step.
func TestRegionAggregatesMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			s := recipedb.NewStore(aggCatalog)
			checkAggregates(t, s, "empty")
			for step := 0; step < 200; step++ {
				live, dead := liveAndDead(s)
				name := fmt.Sprintf("r%d", step)
				var what string
				switch k := rnd.Intn(8); {
				case k <= 1 || len(live) == 0:
					what = "insert"
					if _, err := s.Add(name, randomRegion(rnd), recipedb.AllRecipes, randomIngredients(rnd, 2+rnd.Intn(9))); err != nil {
						t.Fatal(err)
					}
				case k == 2:
					id := live[rnd.Intn(len(live))]
					old := s.Recipe(id).Region
					region := randomRegion(rnd)
					for region == old {
						region = randomRegion(rnd)
					}
					what = fmt.Sprintf("move %d %s->%s", id, old, region)
					if _, _, _, err := s.Upsert(id, name, region, recipedb.Epicurious, randomIngredients(rnd, 2+rnd.Intn(9))); err != nil {
						t.Fatal(err)
					}
				case k == 3:
					id := live[rnd.Intn(len(live))]
					what = fmt.Sprintf("delete %d", id)
					if _, err := s.Remove(id); err != nil {
						t.Fatal(err)
					}
				case k == 4 && len(dead) > 0:
					id := dead[rnd.Intn(len(dead))]
					what = fmt.Sprintf("revive %d", id)
					if _, _, _, err := s.Upsert(id, name, randomRegion(rnd), recipedb.FoodNetwork, randomIngredients(rnd, 2+rnd.Intn(9))); err != nil {
						t.Fatal(err)
					}
				case k == 5:
					id := s.Slots() + rnd.Intn(3)
					what = fmt.Sprintf("gap insert %d", id)
					if _, _, _, err := s.Upsert(id, name, randomRegion(rnd), recipedb.AllRecipes, randomIngredients(rnd, 2+rnd.Intn(9))); err != nil {
						t.Fatal(err)
					}
				case k == 6:
					what = "sync slots"
					s.SyncSlots(s.Slots() + rnd.Intn(3))
				default:
					what = "batch"
					s.ApplyBatch(randomBatch(rnd, s, live, name))
				}
				checkAggregates(t, s, fmt.Sprintf("step %d (%s)", step, what))
			}

			db, err := storage.Open(t.TempDir(), storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := storage.SaveCorpus(db, s); err != nil {
				t.Fatal(err)
			}
			reloaded, err := storage.LoadCorpus(db, aggCatalog)
			if err != nil {
				t.Fatal(err)
			}
			checkAggregates(t, reloaded, "reload")
			for _, r := range append(recipedb.AllRegions(), recipedb.World) {
				if a, b := s.BuildCuisine(r), reloaded.BuildCuisine(r); !reflect.DeepEqual(a, b) {
					t.Fatalf("reloaded %s cuisine %+v, original %+v", r, b, a)
				}
			}
		})
	}
}

// randomBatch builds one coalesced batch mixing inserts, region moves,
// deletes, byte-identical (kept) rewrites and invalid items.
func randomBatch(rnd *rand.Rand, s *recipedb.Store, live []int, name string) []recipedb.BatchItem {
	var items []recipedb.BatchItem
	for i := 0; i < 2+rnd.Intn(6); i++ {
		switch k := rnd.Intn(5); {
		case k == 0 && len(live) > 0:
			items = append(items, recipedb.BatchItem{Remove: true, ID: live[rnd.Intn(len(live))]})
		case k == 1 && len(live) > 0:
			rec := s.Recipe(live[rnd.Intn(len(live))])
			items = append(items, recipedb.BatchItem{ID: rec.ID, Name: rec.Name, Region: rec.Region, Source: rec.Source, Ingredients: rec.Ingredients})
		case k == 2:
			dup := randomIngredients(rnd, 2)
			items = append(items, recipedb.BatchItem{ID: -1, Name: name, Region: randomRegion(rnd), Ingredients: append(dup, dup[0])})
		case k == 3 && len(live) > 0:
			items = append(items, recipedb.BatchItem{ID: live[rnd.Intn(len(live))], Name: name, Region: randomRegion(rnd), Ingredients: randomIngredients(rnd, 2+rnd.Intn(9))})
		default:
			items = append(items, recipedb.BatchItem{ID: -1, Name: name, Region: randomRegion(rnd), Ingredients: randomIngredients(rnd, 2+rnd.Intn(9))})
		}
	}
	return items
}

// TestRegionAggregatesConcurrentReaders runs aggregate readers against
// concurrent writers (run it with -race). Inside one Read the region
// counts must add up to World's, and after the writers stop every read
// must equal the scan.
func TestRegionAggregatesConcurrentReaders(t *testing.T) {
	s := recipedb.NewStore(aggCatalog)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				id := rnd.Intn(40)
				if rnd.Intn(4) == 0 {
					s.Remove(id) // ErrNoRecipe on an absent slot is expected
					continue
				}
				if _, _, _, err := s.Upsert(id, "w", randomRegion(rnd), recipedb.AllRecipes, randomIngredients(rnd, 2+rnd.Intn(9))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.BuildCuisine(recipedb.World)
				s.CategoryUsage(recipedb.Italy)
				s.Read(func(v *recipedb.View) {
					sum := 0
					for _, r := range recipedb.AllRegions() {
						sum += v.RegionSummary(r).Recipes
					}
					if world := v.RegionSummary(recipedb.World).Recipes; sum != world || world != v.Len() {
						t.Errorf("regions sum to %d recipes, World has %d, store %d", sum, world, v.Len())
					}
					v.TopIngredients(recipedb.World, 10)
				})
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkAggregates(t, s, "after concurrent writes")
}
