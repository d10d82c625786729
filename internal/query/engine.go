package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/report"
)

// Semantic (post-parse) errors.
var (
	// ErrSemantic wraps binding/typing failures.
	ErrSemantic = errors.New("query: semantic error")
	// ErrNoScore is returned when a query uses 'score' on an engine
	// built without a pairing analyzer.
	ErrNoScore = errors.New("query: score requires a pairing analyzer")
	// ErrCanceled wraps a context cancellation or deadline expiry
	// observed mid-execution: the scan aborted and the partial result
	// was discarded (and never cached). Callers map it to a structured
	// timeout error; errors.Is(err, context.DeadlineExceeded) still
	// distinguishes deadlines from explicit cancels.
	ErrCanceled = errors.New("query: execution canceled")
)

// cancelCheckInterval is how many visited recipes pass between context
// checks during a scan — frequent enough that a canceled query aborts
// within microseconds, rare enough to keep the per-row cost invisible.
const cancelCheckInterval = 512

// Engine executes parsed queries against a recipe corpus. It is safe
// for concurrent use; hot statements are served from an internal plan
// cache keyed by normalized statement text, and — when enabled — whole
// materialized results are served from a (statement, corpus version)
// result cache in front of execution.
type Engine struct {
	store    *recipedb.Store
	catalog  *flavor.Catalog
	analyzer *pairing.Analyzer // optional; enables the 'score' field
	plans    *planCache
	results  *resultCache // nil until EnableResultCache
}

// NewEngine builds an engine. analyzer may be nil, in which case queries
// touching the 'score' field fail with ErrNoScore. The result cache
// starts disabled; call EnableResultCache to add it.
func NewEngine(store *recipedb.Store, analyzer *pairing.Analyzer) *Engine {
	return &Engine{
		store:    store,
		catalog:  store.Catalog(),
		analyzer: analyzer,
		plans:    newPlanCache(DefaultPlanCacheCapacity),
	}
}

// EnableResultCache adds a byte-bounded result cache keyed by
// (normalized statement, corpus version) in front of execution.
// maxBytes <= 0 selects DefaultResultCacheBytes. Call before the
// engine is shared between goroutines.
func (e *Engine) EnableResultCache(maxBytes int64) {
	e.results = newResultCache(maxBytes)
}

// CacheStats reports the plan cache's hit/miss counters.
func (e *Engine) CacheStats() CacheStats {
	return e.plans.stats()
}

// ResultCacheStats reports the result cache's counters; the zero value
// (Enabled == false) when the cache was never enabled.
func (e *Engine) ResultCacheStats() ResultCacheStats {
	if e.results == nil {
		return ResultCacheStats{}
	}
	return e.results.stats()
}

// Result is a materialized query result. Results returned by Run may
// be shared with other callers through the result cache: treat every
// field as read-only.
type Result struct {
	Columns []string
	Rows    [][]Value
	// Scanned is the number of recipes the executor visited; with the
	// region-index optimization this is less than the corpus size. A
	// result-cache hit reports the scan count of the execution that
	// populated the entry.
	Scanned int
	// Version is the corpus version the result was computed at. The
	// executor runs inside one corpus read epoch, so the result is
	// exactly the statement's answer at this version.
	Version uint64
}

// Table renders the result as an ASCII table.
func (r *Result) Table(title string) *report.Table {
	t := report.NewTable(title, r.Columns...)
	for _, row := range r.Rows {
		cells := make([]interface{}, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		t.AddRow(cells...)
	}
	return t
}

// Run executes a CQL statement with no deadline; see RunContext.
func (e *Engine) Run(input string) (*Result, error) {
	return e.RunContext(context.Background(), input)
}

// RunContext executes a CQL statement. A result-cache hit (same
// normalized statement, same corpus version) returns the shared
// materialized Result without planning or scanning; a plan-cache hit
// skips Parse and bind; misses plan from scratch and populate both
// caches. Statements that fail to parse or bind are never cached.
// Execution happens inside one corpus read epoch, so the returned
// Result is a consistent snapshot stamped with its corpus version.
//
// The scan checks ctx every cancelCheckInterval rows: when the context
// is canceled or its deadline passes, execution aborts promptly with
// an error wrapping ErrCanceled (and the context's cause), the read
// epoch is released, and nothing is cached. No goroutines are spawned,
// so a canceled query leaks nothing.
func (e *Engine) RunContext(ctx context.Context, input string) (*Result, error) {
	key := normalizeStatement(input)
	if e.results != nil {
		if res, ok := e.results.get(key, e.store.Version()); ok {
			return res, nil
		}
	}
	p, ok := e.plans.get(key)
	if !ok {
		q, err := Parse(input)
		if err != nil {
			return nil, err
		}
		pl, err := e.bind(q)
		if err != nil {
			return nil, err
		}
		p = &cachedPlan{key: key, plan: pl}
		e.plans.put(p)
	}
	var res *Result
	var execErr error
	e.store.Read(func(v *recipedb.View) {
		res, execErr = e.exec(ctx, p.plan, v)
	})
	if execErr != nil {
		return nil, execErr
	}
	if e.results != nil {
		e.results.put(key, res.Version, res)
	}
	return res, nil
}

// plan is a bound statement lowered for execution. Everything about
// running it that does not depend on the corpus contents is decided
// here, once, and shared by every execution of a cached plan: the
// expanded select list, the index candidates, the residual predicate
// for each index choice and the ORDER BY column. It is immutable after
// bind, so concurrent runs share it without copying.
type plan struct {
	q       *Query
	items   []SelectItem // select list with '*' expanded
	columns []string
	aggs    []aggCol // the aggregate columns of items
	// shapeErr is a select-list error (aggregates mixed with plain
	// fields, a plain column that is not the GROUP BY key). exec
	// reports it before planning the scan.
	shapeErr error

	// region is the region index a region = 'X' conjunct pins (the
	// last such conjunct wins), World when none does; has holds the
	// ingredient of every bare has() conjunct, in conjunct order. Which
	// index a run walks is chosen per execution from the view's list
	// lengths (choose).
	region recipedb.Region
	has    []flavor.ID
	// residual[0] is the WHERE clause minus the conjuncts the region
	// walk implies; residual[i+1] also drops has[i], for a walk of its
	// posting list. nil means every candidate matches.
	residual []predFn

	// orderCol is the ORDER BY column's index in items, -1 when there
	// is no ORDER BY or it names a column the statement does not select.
	orderCol int
	// matchErr is raised at the first matching row: an aggregate over
	// a non-numeric field, or GROUP BY score without an analyzer.
	matchErr error
}

// bind resolves function arguments, checks score usage and compiles the
// plan, so execution never fails on a per-row basis for static reasons
// it could have found here — and where the statement is wrong in a way
// only a matching row reveals, the plan carries the error to raise.
func (e *Engine) bind(q *Query) (*plan, error) {
	hasIDs := make(map[string]flavor.ID)
	catIDs := make(map[string]flavor.Category)
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
				hasIDs[n.Arg] = id
			case "category":
				cat, err := flavor.ParseCategory(n.Arg)
				if err != nil {
					return fmt.Errorf("%w: category(%q): unknown category", ErrSemantic, n.Arg)
				}
				catIDs[n.Arg] = cat
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

	p := &plan{q: q, region: recipedb.World, orderCol: -1}
	var hasAgg, hasPlain bool
	p.items, hasAgg, hasPlain = expandItems(q.Items)
	for i, it := range p.items {
		p.columns = append(p.columns, it.Label())
		if it.Agg != nil {
			p.aggs = append(p.aggs, aggCol{col: i, field: it.Field, count: *it.Agg == AggCount, star: it.Star})
		}
	}
	if hasAgg && hasPlain && q.GroupBy == nil {
		p.shapeErr = fmt.Errorf("%w: mixing aggregates with plain fields requires GROUP BY", ErrSemantic)
	}
	if q.GroupBy != nil {
		for _, it := range p.items {
			if it.Agg == nil && it.Field != *q.GroupBy {
				p.shapeErr = fmt.Errorf("%w: column %s is neither aggregated nor the GROUP BY key", ErrSemantic, it.Label())
				break
			}
		}
	}
	if q.OrderBy != "" {
		for i, label := range p.columns {
			if strings.EqualFold(label, q.OrderBy) {
				p.orderCol = i
				break
			}
		}
	}
	if q.GroupBy != nil && *q.GroupBy == FieldScore && e.analyzer == nil {
		p.matchErr = ErrNoScore
	} else {
		for _, it := range p.items {
			if it.Agg != nil && !it.Star && *it.Agg != AggCount && !numericField(it.Field) {
				p.matchErr = fmt.Errorf("%w: %s over non-numeric field %s", ErrSemantic, it.Agg, it.Field)
				break
			}
		}
	}

	p.indexes(q.Where, hasIDs)
	k := &compiler{e: e, hasIDs: hasIDs, catIDs: catIDs, region: p.region}
	p.residual = make([]predFn, 1+len(p.has))
	p.residual[0] = k.where(q.Where)
	for i, id := range p.has {
		k.ingredient, k.useIngredient = id, true
		p.residual[i+1] = k.where(q.Where)
	}
	return p, nil
}

// indexes collects the index candidates of the top-level AND chain: a
// region equality and bare has() calls.
func (p *plan) indexes(x Expr, hasIDs map[string]flavor.ID) {
	switch n := x.(type) {
	case *CompareExpr:
		if r, ok := regionConjunct(n); ok {
			p.region = r
		}
	case *FuncExpr:
		// A bare has('x') conjunct implies membership: every match
		// lies on the ingredient's posting list.
		if n.Name == "has" {
			p.has = append(p.has, hasIDs[n.Arg])
		}
	case *BinaryExpr:
		if n.Op == "and" {
			p.indexes(n.L, hasIDs)
			p.indexes(n.R, hasIDs)
		}
	}
}

// regionConjunct recognizes region = 'CODE' (either way round) with a
// known region code.
func regionConjunct(n *CompareExpr) (recipedb.Region, bool) {
	if n.Op != "=" {
		return 0, false
	}
	fe, feOK := n.L.(*FieldExpr)
	lit, litOK := n.R.(*LiteralExpr)
	if !feOK || !litOK {
		fe, feOK = n.R.(*FieldExpr)
		lit, litOK = n.L.(*LiteralExpr)
	}
	if !feOK || !litOK || fe.Field != FieldRegion || lit.Val.Kind != KindString {
		return 0, false
	}
	r, err := recipedb.ParseRegion(strings.ToUpper(lit.Val.Str))
	return r, err == nil
}

// scan is how one execution enumerates candidate recipes and what it
// still checks of each.
type scan struct {
	// region != recipedb.World restricts candidates to the region: its
	// bucket is walked, or the posting list is filtered by it.
	region recipedb.Region
	// ingredient's posting list is walked when useIngredient is true.
	ingredient    flavor.ID
	useIngredient bool
	// pred is the residual predicate; nil when the walk implies the
	// whole WHERE clause.
	pred predFn
}

// choose picks the index to walk against the view's snapshot, so a
// cached plan's index choice tracks corpus mutations: the smallest
// has() posting list, unless the region bucket is smaller still.
func (p *plan) choose(v *recipedb.View) scan {
	pick := -1
	for i, id := range p.has {
		if pick < 0 || len(v.IngredientRecipes(id)) < len(v.IngredientRecipes(p.has[pick])) {
			pick = i
		}
	}
	if pick >= 0 && p.region != recipedb.World &&
		v.RegionLen(p.region) < len(v.IngredientRecipes(p.has[pick])) {
		pick = -1
	}
	sc := scan{region: p.region, pred: p.residual[pick+1]}
	if pick >= 0 {
		sc.ingredient, sc.useIngredient = p.has[pick], true
	}
	return sc
}

// candidates is the length of the list the scan walks: an upper bound
// on its matches.
func (sc scan) candidates(v *recipedb.View) int {
	if sc.useIngredient {
		return len(v.IngredientRecipes(sc.ingredient))
	}
	return v.RegionLen(sc.region)
}

// describe renders the scan for EXPLAIN output.
func (sc scan) describe(e *Engine, v *recipedb.View) string {
	switch {
	case sc.useIngredient && sc.region != recipedb.World:
		return fmt.Sprintf("ingredient index scan on %q (%d candidates) with region filter %s",
			e.catalog.Ingredient(sc.ingredient).Name, len(v.IngredientRecipes(sc.ingredient)), sc.region.Code())
	case sc.useIngredient:
		return fmt.Sprintf("ingredient index scan on %q (%d candidates)",
			e.catalog.Ingredient(sc.ingredient).Name, len(v.IngredientRecipes(sc.ingredient)))
	case sc.region != recipedb.World:
		return fmt.Sprintf("region index scan on %s (%d candidates)", sc.region.Code(), v.RegionLen(sc.region))
	default:
		return fmt.Sprintf("full scan (%d recipes)", v.Len())
	}
}

// starFields is the '*' expansion (score excluded: it is derived and
// comparatively expensive, so it must be requested explicitly).
var starFields = []Field{FieldID, FieldName, FieldRegion, FieldSource, FieldSize}

// expandItems resolves '*' markers and reports whether any aggregate
// and any plain column is present.
func expandItems(items []SelectItem) (out []SelectItem, hasAgg, hasPlain bool) {
	for _, it := range items {
		switch {
		case it.Agg != nil:
			hasAgg = true
			out = append(out, it)
		case it.Star:
			hasPlain = true
			for _, f := range starFields {
				out = append(out, SelectItem{Field: f})
			}
		default:
			hasPlain = true
			out = append(out, it)
		}
	}
	return out, hasAgg, hasPlain
}

// Exec executes a parsed query, binding it first. Callers holding a
// statement string should prefer Run, which caches the bound plan and
// (when enabled) the materialized result.
func (e *Engine) Exec(q *Query) (*Result, error) {
	p, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	var res *Result
	var execErr error
	e.store.Read(func(v *recipedb.View) {
		res, execErr = e.exec(context.Background(), p, v)
	})
	return res, execErr
}

// exec runs a plan against one corpus view; v pins the (version,
// snapshot) pair for the whole run.
func (e *Engine) exec(ctx context.Context, p *plan, v *recipedb.View) (*Result, error) {
	q := p.q
	if p.shapeErr != nil {
		return nil, p.shapeErr
	}
	res := &Result{Columns: p.columns, Version: v.Version}
	sc := p.choose(v)
	if q.Explain {
		res.Columns = []string{"plan"}
		res.Rows = [][]Value{{stringVal(sc.describe(e, v))}}
		return res, nil
	}

	var err error
	switch {
	case q.GroupBy != nil:
		err = e.execGrouped(ctx, p, sc, res, v)
	case len(p.aggs) > 0:
		err = e.execAggregate(ctx, p, sc, res, v)
	case q.OrderBy != "":
		err = e.execTopK(ctx, p, sc, res, v)
	default:
		err = e.execScan(ctx, p, sc, res, v)
	}
	if err != nil {
		return nil, err
	}

	if q.OrderBy != "" {
		if p.orderCol < 0 {
			return nil, fmt.Errorf("%w: ORDER BY column %q is not in the select list", ErrSemantic, q.OrderBy)
		}
		if q.GroupBy != nil || len(p.aggs) > 0 { // execTopK already emitted its rows in order
			col := p.orderCol
			sort.SliceStable(res.Rows, func(i, j int) bool {
				if q.Desc {
					return less(res.Rows[j][col], res.Rows[i][col])
				}
				return less(res.Rows[i][col], res.Rows[j][col])
			})
		}
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// walk visits the scan's candidates in ascending-ID order, counting
// each in res.Scanned and checking ctx every cancelCheckInterval visits
// so a slow scan aborts promptly once its deadline passes.
func walk(ctx context.Context, sc scan, v *recipedb.View, res *Result, visit func(*recipedb.Recipe) error) error {
	done := ctx.Done()
	scanned := 0
	defer func() { res.Scanned += scanned }()
	var ids []int
	switch {
	case sc.useIngredient:
		ids = v.IngredientRecipes(sc.ingredient)
	case sc.region != recipedb.World:
		ids = v.RegionPage(sc.region, 0, v.RegionLen(sc.region))
	default: // every live slot
		for id, n := 0, v.Slots(); id < n; id++ {
			rec := v.Recipe(id)
			if rec.Deleted {
				continue
			}
			if done != nil && scanned%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w: %w", ErrCanceled, err)
				}
			}
			scanned++
			if err := visit(rec); err != nil {
				return err
			}
		}
		return nil
	}
	for i, rid := range ids {
		if done != nil && i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w: %w", ErrCanceled, err)
			}
		}
		rec := v.Recipe(rid)
		if sc.region != recipedb.World && rec.Region != sc.region {
			continue // a posting list filtered by region; the check is free
		}
		scanned++
		if err := visit(rec); err != nil {
			return err
		}
	}
	return nil
}

// execScan streams plain projections in scan order. Once LIMIT rows are
// in, the walk still visits the remaining candidates, so Scanned counts
// every candidate, but nothing more is evaluated for them.
func (e *Engine) execScan(ctx context.Context, p *plan, sc scan, res *Result, v *recipedb.View) error {
	limit := p.q.Limit
	return walk(ctx, sc, v, res, func(rec *recipedb.Recipe) error {
		if limit >= 0 && len(res.Rows) >= limit {
			return nil
		}
		if sc.pred != nil {
			if ok, err := sc.pred(rec); err != nil || !ok {
				return err
			}
		}
		row := make([]Value, len(p.items))
		for i, it := range p.items {
			row[i] = e.value(rec, it.Field)
		}
		res.Rows = append(res.Rows, row)
		return nil
	})
}

// candidate is a matching row held by execTopK: its recipe, its typed
// sort key and its position among the matches.
type candidate struct {
	rec *recipedb.Recipe
	num float64
	str string
	pos int
}

// topK keeps the k matches that come first in ORDER BY order, as a heap
// whose root is the last of them.
type topK struct {
	k      int
	desc   bool
	strKey bool
	h      []candidate
}

// before reports whether a sorts ahead of b: by key, then by scan
// position — the order sort.SliceStable gives.
func (t *topK) before(a, b *candidate) bool {
	var lt, gt bool
	if t.strKey {
		lt, gt = a.str < b.str, b.str < a.str
	} else {
		lt, gt = a.num < b.num, b.num < a.num
	}
	if t.desc {
		lt, gt = gt, lt
	}
	if lt || gt {
		return lt
	}
	return a.pos < b.pos
}

func (t *topK) offer(c candidate) {
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		if len(t.h) == t.k {
			for i := len(t.h)/2 - 1; i >= 0; i-- {
				t.down(i)
			}
		}
		return
	}
	if t.k > 0 && t.before(&c, &t.h[0]) {
		t.h[0] = c
		t.down(0)
	}
}

// down restores the heap below i: every node sorts after its children.
func (t *topK) down(i int) {
	for {
		last := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(t.h) && t.before(&t.h[last], &t.h[c]) {
				last = c
			}
		}
		if last == i {
			return
		}
		t.h[i], t.h[last] = t.h[last], t.h[i]
		i = last
	}
}

// execTopK is plain projection under ORDER BY. Matches enter a bounded
// selection on the typed sort key, ties broken by scan position, and
// only the survivors become rows: the rows and order SliceStable then
// LIMIT would give, because the keys — ints, strings and finite scores
// — are totally ordered. Without LIMIT every match survives.
func (e *Engine) execTopK(ctx context.Context, p *plan, sc scan, res *Result, v *recipedb.View) error {
	k := p.q.Limit
	if k < 0 {
		k = sc.candidates(v)
	}
	var field Field
	if p.orderCol >= 0 {
		field = p.items[p.orderCol].Field
	} else {
		k = 0 // the ORDER BY error follows the scan, which only evaluates
	}
	t := &topK{k: k, desc: p.q.Desc, strKey: !numericField(field)}
	t.h = make([]candidate, 0, min(k, sc.candidates(v)))
	matches := 0
	err := walk(ctx, sc, v, res, func(rec *recipedb.Recipe) error {
		if sc.pred != nil {
			if ok, err := sc.pred(rec); err != nil || !ok {
				return err
			}
		}
		matches++
		if k == 0 {
			return nil
		}
		c := candidate{rec: rec, pos: matches}
		if t.strKey {
			c.str = e.value(rec, field).Str
		} else {
			c.num = e.number(rec, field)
		}
		t.offer(c)
		return nil
	})
	if err != nil {
		return err
	}
	if len(t.h) == 0 {
		if matches > 0 {
			res.Rows = [][]Value{} // LIMIT 0 cut every match: empty, not absent
		}
		return nil
	}
	slices.SortFunc(t.h, func(a, b candidate) int {
		if t.before(&a, &b) {
			return -1
		}
		return 1 // positions differ, so candidates never tie
	})
	n := len(p.items)
	cells := make([]Value, len(t.h)*n)
	res.Rows = make([][]Value, len(t.h))
	for i := range t.h {
		row := cells[i*n : (i+1)*n : (i+1)*n]
		for j, it := range p.items {
			row[j] = e.value(t.h[i].rec, it.Field)
		}
		res.Rows[i] = row
	}
	return nil
}

// aggState accumulates one aggregate column.
type aggState struct {
	count int
	sum   float64
	min   float64
	max   float64
}

func (a *aggState) add(v float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.count++
	a.sum += v
}

// final renders the aggregate output value.
func (a *aggState) final(fn AggFunc, field Field) Value {
	switch fn {
	case AggCount:
		return intVal(int64(a.count))
	case AggSum:
		if field == FieldScore {
			return floatVal(a.sum)
		}
		return intVal(int64(a.sum))
	case AggAvg:
		if a.count == 0 {
			return floatVal(0)
		}
		return floatVal(a.sum / float64(a.count))
	case AggMin:
		if a.count == 0 {
			return floatVal(0)
		}
		if field == FieldScore {
			return floatVal(a.min)
		}
		return intVal(int64(a.min))
	case AggMax:
		if a.count == 0 {
			return floatVal(0)
		}
		if field == FieldScore {
			return floatVal(a.max)
		}
		return intVal(int64(a.max))
	}
	return Value{}
}

// aggCol is one aggregate column of a plan: where its state lives and
// what it adds per matching row.
type aggCol struct {
	col   int
	field Field
	// count: only the row count is read back (final), so it is all
	// that is kept. star: the input is 1. Otherwise field is numeric: a
	// plan aggregating a non-numeric field other than by count raises
	// its matchErr before accumulating.
	count, star bool
}

// accumulate feeds one matching recipe into a row of aggregate states.
func (e *Engine) accumulate(aggs []aggCol, states []aggState, rec *recipedb.Recipe) {
	for _, a := range aggs {
		switch {
		case a.count:
			states[a.col].count++
		case a.star:
			states[a.col].add(1)
		default:
			states[a.col].add(e.number(rec, a.field))
		}
	}
}

// execAggregate computes a single aggregate row.
func (e *Engine) execAggregate(ctx context.Context, p *plan, sc scan, res *Result, v *recipedb.View) error {
	states := make([]aggState, len(p.items))
	err := walk(ctx, sc, v, res, func(rec *recipedb.Recipe) error {
		if sc.pred != nil {
			if ok, err := sc.pred(rec); err != nil || !ok {
				return err
			}
		}
		if p.matchErr != nil {
			return p.matchErr
		}
		e.accumulate(p.aggs, states, rec)
		return nil
	})
	if err != nil {
		return err
	}
	row := make([]Value, len(p.items))
	for i, it := range p.items {
		row[i] = states[i].final(*it.Agg, it.Field)
	}
	res.Rows = [][]Value{row}
	return nil
}

// group is one GROUP BY bucket.
type group struct {
	key Value
	// text is key.String(): groups are merged and ordered by it.
	text   string
	states []aggState
}

// execGrouped computes GROUP BY rows. Region and source keys index a
// dense array of groups by their enum, allocated in one piece; other
// keys go through a map on the typed key, so a key's text is formatted
// once per distinct value, not per row. Groups come out ordered by key
// text.
func (e *Engine) execGrouped(ctx context.Context, p *plan, sc scan, res *Result, v *recipedb.View) error {
	field := *p.q.GroupBy
	n := len(p.items)
	var groups []*group
	var dense []group
	switch field {
	case FieldRegion:
		dense = make([]group, len(regionCodes))
	case FieldSource:
		dense = make([]group, len(sourceNames))
	}
	denseStates := make([]aggState, len(dense)*n)
	var byText map[string]*group
	var byNum map[uint64]*group
	// find returns the group whose key text is key's, creating it.
	find := func(key Value) *group {
		text := key.String()
		if g := byText[text]; g != nil {
			return g
		}
		if byText == nil {
			byText = make(map[string]*group)
		}
		g := &group{key: key, text: text, states: make([]aggState, n)}
		byText[text] = g
		groups = append(groups, g)
		return g
	}
	err := walk(ctx, sc, v, res, func(rec *recipedb.Recipe) error {
		if sc.pred != nil {
			if ok, err := sc.pred(rec); err != nil || !ok {
				return err
			}
		}
		if p.matchErr != nil {
			return p.matchErr
		}
		var g *group
		switch field {
		case FieldRegion, FieldSource:
			i := int(rec.Region)
			if field == FieldSource {
				i = int(rec.Source)
			}
			if uint(i) >= uint(len(dense)) {
				g = find(e.value(rec, field))
				break
			}
			if g = &dense[i]; g.states == nil {
				g.key = e.value(rec, field)
				g.text = g.key.Str
				g.states = denseStates[i*n : (i+1)*n : (i+1)*n]
				groups = append(groups, g)
			}
		case FieldName:
			g = find(stringVal(rec.Name))
		default: // numeric: score keys merge when their text is equal
			key := e.value(rec, field)
			bits := uint64(key.Int)
			if key.Kind == KindFloat {
				bits = math.Float64bits(key.Float)
			}
			if g = byNum[bits]; g == nil {
				if byNum == nil {
					byNum = make(map[uint64]*group)
				}
				g = find(key)
				byNum[bits] = g
			}
		}
		e.accumulate(p.aggs, g.states, rec)
		return nil
	})
	if err != nil || len(groups) == 0 {
		return err
	}
	slices.SortFunc(groups, func(a, b *group) int { return strings.Compare(a.text, b.text) })
	cells := make([]Value, len(groups)*n)
	res.Rows = make([][]Value, len(groups))
	for gi, g := range groups {
		row := cells[gi*n : (gi+1)*n : (gi+1)*n]
		for i, it := range p.items {
			if it.Agg == nil {
				row[i] = g.key
				continue
			}
			row[i] = g.states[i].final(*it.Agg, it.Field)
		}
		res.Rows[gi] = row
	}
	return nil
}
