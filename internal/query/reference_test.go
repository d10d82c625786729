package query

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// This file keeps the row-at-a-time tree-walking interpreter the engine
// executed before statements were compiled into typed scan kernels. It
// is the reference the differential tests compare the compiled executor
// against: it boxes every field into a Value, recurses through the WHERE
// tree for every candidate, groups by the key's text and stable-sorts
// every matching row before LIMIT. Its output — columns, rows, float
// bits, scan count and error text — is the contract the kernels keep.

// refBound is a WHERE clause with has()/category() arguments bound to
// catalog IDs.
type refBound struct {
	expr   Expr
	hasIDs map[string]flavor.ID
	catIDs map[string]flavor.Category
}

// referenceExec binds and executes q against one corpus view the way
// the interpreter did. Bind errors come first, exactly as from Engine.
func (e *Engine) referenceExec(ctx context.Context, q *Query, v *recipedb.View) (*Result, error) {
	c, err := e.refBind(q)
	if err != nil {
		return nil, err
	}
	return e.refExec(ctx, q, c, v)
}

// referenceRun parses, binds and executes a statement under one read
// epoch with the reference interpreter.
func (e *Engine) referenceRun(input string) (*Result, error) {
	q, err := Parse(input)
	if err != nil {
		return nil, err
	}
	var res *Result
	e.store.Read(func(v *recipedb.View) {
		res, err = e.referenceExec(context.Background(), q, v)
	})
	return res, err
}

func (e *Engine) refBind(q *Query) (*refBound, error) {
	c := &refBound{
		expr:   q.Where,
		hasIDs: make(map[string]flavor.ID),
		catIDs: make(map[string]flavor.Category),
	}
	usesScore := false
	for _, it := range q.Items {
		if it.Field == FieldScore && !it.Star {
			usesScore = true
		}
	}
	var walk func(Expr) error
	walk = func(x Expr) error {
		switch n := x.(type) {
		case nil:
			return nil
		case *BinaryExpr:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *NotExpr:
			return walk(n.X)
		case *CompareExpr:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *FieldExpr:
			if n.Field == FieldScore {
				usesScore = true
			}
			return nil
		case *InExpr:
			return walk(n.X)
		case *LiteralExpr:
			return nil
		case *FuncExpr:
			switch n.Name {
			case "has":
				id, ok := e.catalog.Lookup(n.Arg)
				if !ok {
					return fmt.Errorf("%w: has(%q): unknown ingredient", ErrSemantic, n.Arg)
				}
				c.hasIDs[n.Arg] = id
			case "category":
				cat, err := flavor.ParseCategory(n.Arg)
				if err != nil {
					return fmt.Errorf("%w: category(%q): unknown category", ErrSemantic, n.Arg)
				}
				c.catIDs[n.Arg] = cat
			default:
				return fmt.Errorf("%w: unknown function %q", ErrSemantic, n.Name)
			}
			return nil
		}
		return fmt.Errorf("%w: unhandled expression node %T", ErrSemantic, x)
	}
	if err := walk(q.Where); err != nil {
		return nil, err
	}
	if usesScore && e.analyzer == nil {
		return nil, ErrNoScore
	}
	return c, nil
}

// refPlanScan is the interpreter's planner: the same index choice the
// compiled plan makes, with the full WHERE clause still evaluated per
// candidate.
func (e *Engine) refPlanScan(x Expr, c *refBound, v *recipedb.View) scan {
	plan := scan{region: recipedb.World}
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case *CompareExpr:
			if n.Op != "=" {
				return
			}
			fe, feOK := n.L.(*FieldExpr)
			lit, litOK := n.R.(*LiteralExpr)
			if !feOK || !litOK {
				fe, feOK = n.R.(*FieldExpr)
				lit, litOK = n.L.(*LiteralExpr)
			}
			if !feOK || !litOK || fe.Field != FieldRegion || lit.Val.Kind != KindString {
				return
			}
			if r, err := recipedb.ParseRegion(strings.ToUpper(lit.Val.Str)); err == nil {
				plan.region = r
			}
		case *FuncExpr:
			if n.Name != "has" {
				return
			}
			id := c.hasIDs[n.Arg]
			if !plan.useIngredient ||
				len(v.IngredientRecipes(id)) < len(v.IngredientRecipes(plan.ingredient)) {
				plan.ingredient, plan.useIngredient = id, true
			}
		case *BinaryExpr:
			if n.Op != "and" {
				return
			}
			walk(n.L)
			walk(n.R)
		}
	}
	walk(x)
	if plan.useIngredient && plan.region != recipedb.World {
		if v.RegionLen(plan.region) < len(v.IngredientRecipes(plan.ingredient)) {
			plan.useIngredient = false
		}
	}
	return plan
}

func (e *Engine) refFieldValue(rec *recipedb.Recipe, f Field) (Value, error) {
	switch f {
	case FieldID:
		return intVal(int64(rec.ID)), nil
	case FieldName:
		return stringVal(rec.Name), nil
	case FieldRegion:
		return stringVal(rec.Region.Code()), nil
	case FieldSource:
		return stringVal(rec.Source.String()), nil
	case FieldSize:
		return intVal(int64(rec.Size())), nil
	case FieldScore:
		if e.analyzer == nil {
			return Value{}, ErrNoScore
		}
		s, ok := e.analyzer.RecipeScore(rec.Ingredients)
		if !ok {
			return floatVal(0), nil
		}
		return floatVal(s), nil
	}
	return Value{}, fmt.Errorf("%w: unknown field %d", ErrSemantic, f)
}

func (e *Engine) refEval(c *refBound, x Expr, rec *recipedb.Recipe) (Value, error) {
	switch n := x.(type) {
	case *LiteralExpr:
		return n.Val, nil
	case *FieldExpr:
		return e.refFieldValue(rec, n.Field)
	case *FuncExpr:
		switch n.Name {
		case "has":
			return boolVal(rec.Contains(c.hasIDs[n.Arg])), nil
		case "category":
			cat := c.catIDs[n.Arg]
			count := 0
			for _, id := range rec.Ingredients {
				if e.catalog.Ingredient(id).Category == cat {
					count++
				}
			}
			return intVal(int64(count)), nil
		}
		return Value{}, fmt.Errorf("%w: unknown function %q", ErrSemantic, n.Name)
	case *CompareExpr:
		l, err := e.refEval(c, n.L, rec)
		if err != nil {
			return Value{}, err
		}
		r, err := e.refEval(c, n.R, rec)
		if err != nil {
			return Value{}, err
		}
		ok, err := compare(n.Op, l, r)
		if err != nil {
			return Value{}, fmt.Errorf("%w: %v", ErrSemantic, err)
		}
		return boolVal(ok), nil
	case *InExpr:
		v, err := e.refEval(c, n.X, rec)
		if err != nil {
			return Value{}, err
		}
		found := false
		for _, lit := range n.Values {
			ok, err := compare("=", v, lit)
			if err != nil {
				return Value{}, fmt.Errorf("%w: %v", ErrSemantic, err)
			}
			if ok {
				found = true
				break
			}
		}
		return boolVal(found != n.Negate), nil
	case *NotExpr:
		v, err := e.refEval(c, n.X, rec)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != KindBool {
			return Value{}, fmt.Errorf("%w: NOT needs a boolean", ErrSemantic)
		}
		return boolVal(!v.Bool), nil
	case *BinaryExpr:
		l, err := e.refEval(c, n.L, rec)
		if err != nil {
			return Value{}, err
		}
		if l.Kind != KindBool {
			return Value{}, fmt.Errorf("%w: %s needs boolean operands", ErrSemantic, strings.ToUpper(n.Op))
		}
		if n.Op == "and" && !l.Bool {
			return boolVal(false), nil
		}
		if n.Op == "or" && l.Bool {
			return boolVal(true), nil
		}
		r, err := e.refEval(c, n.R, rec)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != KindBool {
			return Value{}, fmt.Errorf("%w: %s needs boolean operands", ErrSemantic, strings.ToUpper(n.Op))
		}
		if n.Op == "and" {
			return boolVal(l.Bool && r.Bool), nil
		}
		return boolVal(l.Bool || r.Bool), nil
	}
	return Value{}, fmt.Errorf("%w: unhandled node %T", ErrSemantic, x)
}

func (e *Engine) refMatches(c *refBound, rec *recipedb.Recipe) (bool, error) {
	if c.expr == nil {
		return true, nil
	}
	v, err := e.refEval(c, c.expr, rec)
	if err != nil {
		return false, err
	}
	if v.Kind != KindBool {
		return false, fmt.Errorf("%w: WHERE clause is %s, not boolean", ErrSemantic, v.kindName())
	}
	return v.Bool, nil
}

func (e *Engine) refExec(ctx context.Context, q *Query, c *refBound, v *recipedb.View) (*Result, error) {
	items, hasAgg, hasPlain := expandItems(q.Items)
	if hasAgg && hasPlain && q.GroupBy == nil {
		return nil, fmt.Errorf("%w: mixing aggregates with plain fields requires GROUP BY", ErrSemantic)
	}
	if q.GroupBy != nil {
		for _, it := range items {
			if it.Agg == nil && it.Field != *q.GroupBy {
				return nil, fmt.Errorf("%w: column %s is neither aggregated nor the GROUP BY key", ErrSemantic, it.Label())
			}
		}
	}

	res := &Result{Version: v.Version}
	for _, it := range items {
		res.Columns = append(res.Columns, it.Label())
	}

	plan := scan{region: recipedb.World}
	if q.Where != nil {
		plan = e.refPlanScan(q.Where, c, v)
	}
	if q.Explain {
		res.Columns = []string{"plan"}
		res.Rows = [][]Value{{stringVal(plan.describe(e, v))}}
		return res, nil
	}

	var execErr error
	switch {
	case q.GroupBy != nil:
		execErr = e.refExecGrouped(ctx, q, c, items, plan, res, v)
	case hasAgg:
		execErr = e.refExecAggregate(ctx, c, items, plan, res, v)
	default:
		execErr = e.refExecScan(ctx, q, c, items, plan, res, v)
	}
	if execErr != nil {
		return nil, execErr
	}

	if q.OrderBy != "" {
		col := -1
		for i, label := range res.Columns {
			if strings.EqualFold(label, q.OrderBy) {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("%w: ORDER BY column %q is not in the select list", ErrSemantic, q.OrderBy)
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			if q.Desc {
				return less(res.Rows[j][col], res.Rows[i][col])
			}
			return less(res.Rows[i][col], res.Rows[j][col])
		})
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

func (e *Engine) refForEach(ctx context.Context, plan scan, res *Result, v *recipedb.View, fn func(*recipedb.Recipe) error) error {
	done := ctx.Done()
	if plan.useIngredient {
		for i, rid := range v.IngredientRecipes(plan.ingredient) {
			if done != nil && i%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w: %w", ErrCanceled, err)
				}
			}
			rec := v.Recipe(rid)
			if plan.region != recipedb.World && rec.Region != plan.region {
				continue
			}
			res.Scanned++
			if err := fn(rec); err != nil {
				return err
			}
		}
		return nil
	}
	var visitErr error
	visited := 0
	v.ForEachInRegion(plan.region, func(rec *recipedb.Recipe) {
		if visitErr != nil {
			return
		}
		if done != nil && visited%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				visitErr = fmt.Errorf("%w: %w", ErrCanceled, err)
				return
			}
		}
		visited++
		res.Scanned++
		visitErr = fn(rec)
	})
	return visitErr
}

func (e *Engine) refExecScan(ctx context.Context, q *Query, c *refBound, items []SelectItem, plan scan, res *Result, v *recipedb.View) error {
	stopEarly := q.OrderBy == "" && q.Limit >= 0
	return e.refForEach(ctx, plan, res, v, func(rec *recipedb.Recipe) error {
		if stopEarly && len(res.Rows) >= q.Limit {
			return nil
		}
		ok, err := e.refMatches(c, rec)
		if err != nil || !ok {
			return err
		}
		row := make([]Value, len(items))
		for i, it := range items {
			v, err := e.refFieldValue(rec, it.Field)
			if err != nil {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return nil
	})
}

func (e *Engine) refAccumulate(items []SelectItem, states []aggState, rec *recipedb.Recipe) error {
	for i, it := range items {
		if it.Agg == nil {
			continue
		}
		if it.Star {
			states[i].add(1)
			continue
		}
		v, err := e.refFieldValue(rec, it.Field)
		if err != nil {
			return err
		}
		f, ok := v.asFloat()
		if !ok {
			f = 1
			if *it.Agg != AggCount {
				return fmt.Errorf("%w: %s over non-numeric field %s", ErrSemantic, it.Agg, it.Field)
			}
		}
		states[i].add(f)
	}
	return nil
}

func (e *Engine) refExecAggregate(ctx context.Context, c *refBound, items []SelectItem, plan scan, res *Result, v *recipedb.View) error {
	states := make([]aggState, len(items))
	err := e.refForEach(ctx, plan, res, v, func(rec *recipedb.Recipe) error {
		ok, err := e.refMatches(c, rec)
		if err != nil || !ok {
			return err
		}
		return e.refAccumulate(items, states, rec)
	})
	if err != nil {
		return err
	}
	row := make([]Value, len(items))
	for i, it := range items {
		row[i] = states[i].final(*it.Agg, it.Field)
	}
	res.Rows = append(res.Rows, row)
	return nil
}

func (e *Engine) refExecGrouped(ctx context.Context, q *Query, c *refBound, items []SelectItem, plan scan, res *Result, v *recipedb.View) error {
	type group struct {
		key    Value
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string

	err := e.refForEach(ctx, plan, res, v, func(rec *recipedb.Recipe) error {
		ok, err := e.refMatches(c, rec)
		if err != nil || !ok {
			return err
		}
		keyVal, err := e.refFieldValue(rec, *q.GroupBy)
		if err != nil {
			return err
		}
		k := keyVal.String()
		g, ok2 := groups[k]
		if !ok2 {
			g = &group{key: keyVal, states: make([]aggState, len(items))}
			groups[k] = g
			order = append(order, k)
		}
		return e.refAccumulate(items, g.states, rec)
	})
	if err != nil {
		return err
	}
	sort.Strings(order)
	for _, k := range order {
		g := groups[k]
		row := make([]Value, len(items))
		for i, it := range items {
			if it.Agg == nil {
				row[i] = g.key
				continue
			}
			row[i] = g.states[i].final(*it.Agg, it.Field)
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}
