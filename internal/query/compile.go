package query

import (
	"cmp"
	"fmt"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// predFn is a compiled WHERE predicate. For every recipe it returns the
// value the clause has there and, where evaluating it fails, the error
// — the same text, raised at the same node, that evaluating the clause
// row by row would give.
type predFn func(*recipedb.Recipe) (bool, error)

// operand is one compiled expression. A CQL expression's kind is
// static — fields, literals and functions have one kind whatever the
// row — so only the evaluators for kind are set: pred for booleans,
// str for strings, num for numbers (ints widened, as compare widens
// them) and i64 for ints that are exact.
type operand struct {
	kind Kind
	pred predFn
	str  func(*recipedb.Recipe) string
	num  func(*recipedb.Recipe) float64
	i64  func(*recipedb.Recipe) int64
	lit  *Value // set for literals
	// field is set for a bare region or source field.
	field    Field
	enumLeaf bool
	// regionTable is a region-only predicate's outcome per region.
	regionTable []outcome
	// implied marks a conjunct true of every candidate the walk visits.
	implied bool
}

// outcome is one precomputed predicate result.
type outcome struct {
	ok  bool
	err error
}

// regionCodes and sourceNames are the texts of every valid region and
// source, indexed by the enum.
var (
	regionCodes = func() (out []string) {
		for r := recipedb.Region(0); r.Valid(); r++ {
			out = append(out, r.Code())
		}
		return out
	}()
	sourceNames = func() (out []string) {
		for s := recipedb.Source(0); s.Valid(); s++ {
			out = append(out, s.String())
		}
		return out
	}()
)

// compiler lowers a bound WHERE clause into the residual predicate for
// one walk: conjuncts of the top-level AND chain that hold for every
// candidate the walk visits are dropped.
type compiler struct {
	e      *Engine
	hasIDs map[string]flavor.ID
	catIDs map[string]flavor.Category
	// region != World: the walk visits only this region's recipes.
	region recipedb.Region
	// useIngredient: the walk visits ingredient's posting list.
	ingredient    flavor.ID
	useIngredient bool
}

// where compiles x into its residual predicate; nil when the walk
// implies all of it.
func (k *compiler) where(x Expr) predFn {
	if x == nil {
		return nil
	}
	o := k.expr(x, true)
	if o.implied {
		return nil
	}
	if o.kind != KindBool {
		return fail(fmt.Errorf("%w: WHERE clause is %s, not boolean", ErrSemantic, Value{Kind: o.kind}.kindName()))
	}
	return o.pred
}

// expr compiles x; conj says x is a conjunct of the top-level AND chain,
// where an implied conjunct may be dropped.
func (k *compiler) expr(x Expr, conj bool) operand {
	switch n := x.(type) {
	case *LiteralExpr:
		return literal(n.Val)
	case *FieldExpr:
		return k.field(n.Field)
	case *FuncExpr:
		switch n.Name {
		case "has":
			id := k.hasIDs[n.Arg]
			if conj && k.useIngredient && id == k.ingredient {
				return operand{kind: KindBool, implied: true}
			}
			return boolean(func(rec *recipedb.Recipe) (bool, error) { return rec.Contains(id), nil })
		case "category":
			cat := k.catIDs[n.Arg]
			in := make([]bool, k.e.catalog.Len())
			for id := range in {
				in[id] = k.e.catalog.Ingredient(flavor.ID(id)).Category == cat
			}
			return integer(func(rec *recipedb.Recipe) int64 {
				n := 0
				for _, id := range rec.Ingredients {
					if in[id] {
						n++
					}
				}
				return int64(n)
			})
		}
		return failing(fmt.Errorf("%w: unknown function %q", ErrSemantic, n.Name))
	case *CompareExpr:
		return k.implies(k.compare(n.Op, k.expr(n.L, false), k.expr(n.R, false)), conj)
	case *InExpr:
		return k.implies(k.in(k.expr(n.X, false), n.Values, n.Negate), conj)
	case *NotExpr:
		x := k.expr(n.X, false)
		if x.kind != KindBool {
			return failing(fmt.Errorf("%w: NOT needs a boolean", ErrSemantic))
		}
		f := x.pred
		return boolean(func(rec *recipedb.Recipe) (bool, error) {
			ok, err := f(rec)
			return !ok && err == nil, err
		})
	case *BinaryExpr:
		conj = conj && n.Op == "and"
		l, r := k.expr(n.L, conj), k.expr(n.R, conj)
		// A non-boolean operand cannot fail by itself, so the operator's
		// check is what fails, whenever the operand is evaluated.
		opErr := fmt.Errorf("%w: %s needs boolean operands", ErrSemantic, strings.ToUpper(n.Op))
		if l.kind != KindBool {
			return failing(opErr)
		}
		if r.kind != KindBool {
			r = failing(opErr)
		}
		lf, rf := l.pred, r.pred
		if n.Op != "and" {
			return boolean(func(rec *recipedb.Recipe) (bool, error) {
				if ok, err := lf(rec); ok || err != nil {
					return ok, err
				}
				return rf(rec)
			})
		}
		switch {
		case l.implied:
			return r
		case r.implied:
			return l
		}
		return boolean(func(rec *recipedb.Recipe) (bool, error) {
			if ok, err := lf(rec); !ok || err != nil {
				return false, err
			}
			return rf(rec)
		})
	}
	return failing(fmt.Errorf("%w: unhandled node %T", ErrSemantic, x))
}

// implies marks a region-only conjunct implied when the walk is confined
// to a region where it holds.
func (k *compiler) implies(o operand, conj bool) operand {
	if conj && o.regionTable != nil && k.region != recipedb.World && int(k.region) < len(o.regionTable) &&
		o.regionTable[k.region] == (outcome{ok: true}) {
		return operand{kind: KindBool, implied: true}
	}
	return o
}

func (k *compiler) field(f Field) operand {
	switch f {
	case FieldID:
		return integer(func(rec *recipedb.Recipe) int64 { return int64(rec.ID) })
	case FieldSize:
		return integer(func(rec *recipedb.Recipe) int64 { return int64(len(rec.Ingredients)) })
	case FieldScore:
		return operand{kind: KindFloat, num: k.e.score}
	case FieldName:
		return operand{kind: KindString, str: func(rec *recipedb.Recipe) string { return rec.Name }}
	case FieldRegion:
		return operand{kind: KindString, field: f, enumLeaf: true,
			str: func(rec *recipedb.Recipe) string { return rec.Region.Code() }}
	case FieldSource:
		return operand{kind: KindString, field: f, enumLeaf: true,
			str: func(rec *recipedb.Recipe) string { return rec.Source.String() }}
	}
	return failing(fmt.Errorf("%w: unknown field %d", ErrSemantic, f))
}

// compare compiles a comparison. Typed fast paths cover a region or
// source against a literal (a table lookup), numbers against numbers
// and a string against a string literal; every other case — booleans,
// two string fields, any kind mismatch — compares the operands' values
// with compare itself, so the result and error text cannot drift.
func (k *compiler) compare(op string, l, r operand) operand {
	switch {
	case l.enumLeaf && r.lit != nil:
		lit := *r.lit
		return enumPredicate(l.field, func(v Value) (bool, error) { return compareValues(op, v, lit) })
	case r.enumLeaf && l.lit != nil:
		lit := *l.lit
		return enumPredicate(r.field, func(v Value) (bool, error) { return compareValues(op, lit, v) })
	case numeric(l.kind) && numeric(r.kind) && ordered[int64](op) != nil:
		if l.i64 != nil && r.i64 != nil {
			f, li, ri := ordered[int64](op), l.i64, r.i64
			return boolean(func(rec *recipedb.Recipe) (bool, error) { return f(li(rec), ri(rec)), nil })
		}
		f, ln, rn := ordered[float64](op), l.num, r.num
		return boolean(func(rec *recipedb.Recipe) (bool, error) { return f(ln(rec), rn(rec)), nil })
	case l.kind == KindString && r.lit != nil && r.kind == KindString && op == "like":
		ls, low := l.str, strings.ToLower(r.lit.Str)
		return boolean(func(rec *recipedb.Recipe) (bool, error) {
			return strings.Contains(strings.ToLower(ls(rec)), low), nil
		})
	case l.kind == KindString && r.lit != nil && r.kind == KindString && ordered[string](op) != nil:
		f, ls, low := ordered[string](op), l.str, strings.ToLower(r.lit.Str)
		return boolean(func(rec *recipedb.Recipe) (bool, error) { return f(strings.ToLower(ls(rec)), low), nil })
	}
	lv, rv := l.value, r.value
	return boolean(func(rec *recipedb.Recipe) (bool, error) {
		a, err := lv(rec)
		if err != nil {
			return false, err
		}
		b, err := rv(rec)
		if err != nil {
			return false, err
		}
		return compareValues(op, a, b)
	})
}

// in compiles x [NOT] IN (values): a table lookup for a region or
// source, a typed search for a number in numeric literals, and
// otherwise the list check on the operand's value.
func (k *compiler) in(x operand, values []Value, negate bool) operand {
	if x.enumLeaf {
		return enumPredicate(x.field, func(v Value) (bool, error) { return inList(v, values, negate) })
	}
	if numeric(x.kind) {
		nums := make([]float64, 0, len(values))
		for _, lit := range values {
			if f, ok := lit.asFloat(); ok {
				nums = append(nums, f)
			}
		}
		if len(nums) == len(values) {
			xn := x.num
			return boolean(func(rec *recipedb.Recipe) (bool, error) {
				f := xn(rec)
				for _, n := range nums {
					if f == n {
						return !negate, nil
					}
				}
				return negate, nil
			})
		}
	}
	xv := x.value
	return boolean(func(rec *recipedb.Recipe) (bool, error) {
		v, err := xv(rec)
		if err != nil {
			return false, err
		}
		return inList(v, values, negate)
	})
}

// enumPredicate compiles a predicate on a region or source alone into a
// table of its outcome for every value of the enum.
func enumPredicate(f Field, outcomeOf func(Value) (bool, error)) operand {
	names := regionCodes
	if f == FieldSource {
		names = sourceNames
	}
	table := make([]outcome, len(names))
	for i, name := range names {
		table[i].ok, table[i].err = outcomeOf(stringVal(name))
	}
	if f == FieldSource {
		return boolean(func(rec *recipedb.Recipe) (bool, error) {
			if i := int(rec.Source); uint(i) < uint(len(table)) {
				return table[i].ok, table[i].err
			}
			return outcomeOf(stringVal(rec.Source.String()))
		})
	}
	o := boolean(func(rec *recipedb.Recipe) (bool, error) {
		if i := int(rec.Region); uint(i) < uint(len(table)) {
			return table[i].ok, table[i].err
		}
		return outcomeOf(stringVal(rec.Region.Code()))
	})
	o.regionTable = table
	return o
}

// compareValues is compare with its error reported as the executor
// reports it.
func compareValues(op string, l, r Value) (bool, error) {
	ok, err := compare(op, l, r)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrSemantic, err)
	}
	return ok, nil
}

// inList reports whether v equals one of values, checked in order, or
// with negate whether it equals none.
func inList(v Value, values []Value, negate bool) (bool, error) {
	for _, lit := range values {
		ok, err := compareValues("=", v, lit)
		if err != nil {
			return false, err
		}
		if ok {
			return !negate, nil
		}
	}
	return negate, nil
}

// ordered returns op over T, or nil when op is not a comparison.
func ordered[T cmp.Ordered](op string) func(a, b T) bool {
	switch op {
	case "=":
		return func(a, b T) bool { return a == b }
	case "!=":
		return func(a, b T) bool { return a != b }
	case "<":
		return func(a, b T) bool { return a < b }
	case "<=":
		return func(a, b T) bool { return a <= b }
	case ">":
		return func(a, b T) bool { return a > b }
	case ">=":
		return func(a, b T) bool { return a >= b }
	}
	return nil
}

func numeric(k Kind) bool { return k == KindInt || k == KindFloat }

func boolean(f predFn) operand { return operand{kind: KindBool, pred: f} }

// failing is a boolean operand whose every evaluation fails with err.
func failing(err error) operand { return boolean(fail(err)) }

func fail(err error) predFn {
	return func(*recipedb.Recipe) (bool, error) { return false, err }
}

func integer(f func(*recipedb.Recipe) int64) operand {
	return operand{kind: KindInt, i64: f, num: func(rec *recipedb.Recipe) float64 { return float64(f(rec)) }}
}

// maxExactInt bounds the ints that compare the same as int64 and as
// float64.
const maxExactInt = 1 << 53

func literal(v Value) operand {
	o := operand{kind: v.Kind, lit: &v}
	switch v.Kind {
	case KindInt:
		n := v.Int
		o.num = func(*recipedb.Recipe) float64 { return float64(n) }
		if -maxExactInt <= n && n <= maxExactInt {
			o.i64 = func(*recipedb.Recipe) int64 { return n }
		}
	case KindFloat:
		f := v.Float
		o.num = func(*recipedb.Recipe) float64 { return f }
	case KindString:
		s := v.Str
		o.str = func(*recipedb.Recipe) string { return s }
	case KindBool:
		b := v.Bool
		o.pred = func(*recipedb.Recipe) (bool, error) { return b, nil }
	}
	return o
}

// value boxes the operand's value for one recipe.
func (o operand) value(rec *recipedb.Recipe) (Value, error) {
	switch {
	case o.lit != nil:
		return *o.lit, nil
	case o.kind == KindInt:
		return intVal(o.i64(rec)), nil
	case o.kind == KindFloat:
		return floatVal(o.num(rec)), nil
	case o.kind == KindString:
		return stringVal(o.str(rec)), nil
	}
	ok, err := o.pred(rec)
	return boolVal(ok), err
}

// numericField reports whether a field is a number.
func numericField(f Field) bool { return f == FieldID || f == FieldSize || f == FieldScore }

// number reads a numeric field as the aggregates and ORDER BY see it.
func (e *Engine) number(rec *recipedb.Recipe, f Field) float64 {
	switch f {
	case FieldID:
		return float64(rec.ID)
	case FieldSize:
		return float64(len(rec.Ingredients))
	}
	return e.score(rec)
}

// score is the recipe's food-pairing score, 0 when it has fewer than
// two profiled ingredients. Binding guarantees an analyzer wherever a
// plan reads it.
func (e *Engine) score(rec *recipedb.Recipe) float64 {
	s, ok := e.analyzer.RecipeScore(rec.Ingredients)
	if !ok {
		return 0
	}
	return s
}

// value materializes one field of an output row or group key.
func (e *Engine) value(rec *recipedb.Recipe, f Field) Value {
	switch f {
	case FieldID:
		return intVal(int64(rec.ID))
	case FieldName:
		return stringVal(rec.Name)
	case FieldRegion:
		return stringVal(rec.Region.Code())
	case FieldSource:
		return stringVal(rec.Source.String())
	case FieldSize:
		return intVal(int64(len(rec.Ingredients)))
	}
	return floatVal(e.score(rec))
}
