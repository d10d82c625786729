package main

import (
	"net/http"
	"strings"
)

// route identifies one API endpoint the workloads send.
type route int

const (
	rRegions route = iota
	rRegion
	rPairing
	rRecipesPage
	rRecipeGet
	rIngredientPairings
	rComplete
	rClassify
	rSearch
	rQuery
	rUpsert
	rDelete
	rBatch
	numRoutes
	rOther = numRoutes
)

var routeNames = [numRoutes]string{
	"regions", "region", "pairing", "recipes_page", "recipe_get",
	"ingredient_pairings", "complete", "classify", "search", "query",
	"upsert", "delete", "batch",
}

func (r route) String() string {
	if r >= 0 && r < numRoutes {
		return routeNames[r]
	}
	return "other"
}

// class groups routes whose costs are alike; each class has its own
// latency metrics.
type class int

const (
	cLight class = iota
	cHeavy
	cQuery
	cSearch
	cWrite
	numClasses
)

var classNames = [numClasses]string{"light", "heavy", "query", "search", "write"}

func (c class) String() string { return classNames[c] }

func classOf(r route) class {
	switch r {
	case rRegions, rRegion, rPairing:
		return cHeavy
	case rQuery:
		return cQuery
	case rSearch:
		return cSearch
	case rUpsert, rDelete, rBatch:
		return cWrite
	}
	return cLight
}

// routeOf classifies a request the way cmd/server's mux routes it.
func routeOf(r *http.Request) route {
	p := strings.TrimPrefix(r.URL.Path, "/api/")
	seg := strings.Split(p, "/")
	switch r.Method {
	case http.MethodGet:
		switch {
		case p == "regions":
			return rRegions
		case seg[0] == "regions" && len(seg) == 2:
			return rRegion
		case seg[0] == "regions" && len(seg) == 3 && seg[2] == "pairing":
			return rPairing
		case p == "recipes":
			return rRecipesPage
		case seg[0] == "recipes" && len(seg) == 2:
			return rRecipeGet
		case seg[0] == "ingredients" && len(seg) == 3 && seg[2] == "pairings":
			return rIngredientPairings
		case p == "search":
			return rSearch
		}
	case http.MethodPost:
		switch p {
		case "complete":
			return rComplete
		case "classify":
			return rClassify
		case "query":
			return rQuery
		case "recipes":
			return rUpsert
		case "recipes/batch":
			return rBatch
		}
	case http.MethodDelete:
		if seg[0] == "recipes" && len(seg) == 2 {
			return rDelete
		}
	}
	return rOther
}
