package relalg

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// The reference evaluator: every relational operator written as plain
// loops over []Tuple — no iterators, batches, interning or hash tables.
// The streaming operators are checked against it, so a test comparing an
// operator with its reference compares two independent implementations.

// refFilter keeps the tuples of r satisfying pred.
func refFilter(r *Relation, pred sqlparse.Expr) (*Relation, error) {
	out := NewRelation(r.Name, r.Schema)
	for _, t := range r.Tuples {
		ok, err := EvalBool(pred, r.Schema, t)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// refProject computes one output column per item for every tuple.
func refProject(r *Relation, items []ProjectItem) (*Relation, error) {
	var schema Schema
	for _, it := range items {
		schema.Columns = append(schema.Columns, Column{Name: it.Name})
	}
	out := NewRelation(r.Name, schema)
	for _, t := range r.Tuples {
		row := make(Tuple, len(items))
		for i, it := range items {
			v, err := Eval(it.Expr, r.Schema, t)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// concat returns a fresh left ++ right row.
func concat(l, r Tuple) Tuple {
	return append(append(make(Tuple, 0, len(l)+len(r)), l...), r...)
}

// refNestedLoop keeps every outer × inner pair, outer-major, whose
// concatenation satisfies pred; a nil pred keeps them all (the cross
// product).
func refNestedLoop(outer, inner *Relation, pred sqlparse.Expr) (*Relation, error) {
	out := NewRelation("", outer.Schema.Concat(inner.Schema))
	for _, l := range outer.Tuples {
		for _, r := range inner.Tuples {
			row := concat(l, r)
			if pred != nil {
				ok, err := EvalBool(pred, out.Schema, row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out, nil
}

// refEquiJoin joins a and b where every key pair is equal (NULL keys
// never join). Output columns are a ++ b. Rows come probe-major: in b's
// order when probeRight, otherwise in a's, and the matches of one probe
// row in the other side's order.
func refEquiJoin(t *testing.T, a, b *Relation, aKeys, bKeys []string, probeRight bool) *Relation {
	t.Helper()
	ai, bi := keyCols(t, a, aKeys), keyCols(t, b, bKeys)
	match := func(l, r Tuple) bool {
		for k := range ai {
			if !l[ai[k]].Equal(r[bi[k]]) {
				return false
			}
		}
		return true
	}
	out := NewRelation("", a.Schema.Concat(b.Schema))
	if probeRight {
		for _, r := range b.Tuples {
			for _, l := range a.Tuples {
				if match(l, r) {
					out.Tuples = append(out.Tuples, concat(l, r))
				}
			}
		}
		return out
	}
	for _, l := range a.Tuples {
		for _, r := range b.Tuples {
			if match(l, r) {
				out.Tuples = append(out.Tuples, concat(l, r))
			}
		}
	}
	return out
}

// refMergeJoin is the equi-join in key order: both sides stably sorted
// on their keys, then joined left-major.
func refMergeJoin(t *testing.T, a, b *Relation, aKeys, bKeys []string) *Relation {
	t.Helper()
	sortOn := func(r *Relation, keys []string) *Relation {
		idx := keyCols(t, r, keys)
		out := NewRelation(r.Name, r.Schema)
		out.Tuples = refStableSort(r.Tuples, func(x, y Tuple) bool {
			for _, k := range idx {
				if c := x[k].SortKey(y[k]); c != 0 {
					return c < 0
				}
			}
			return false
		})
		return out
	}
	return refEquiJoin(t, sortOn(a, aKeys), sortOn(b, bKeys), aKeys, bKeys, false)
}

func keyCols(t *testing.T, r *Relation, keys []string) []int {
	t.Helper()
	idx := make([]int, len(keys))
	for i, k := range keys {
		if idx[i] = r.Schema.Index(k); idx[i] < 0 {
			t.Fatalf("reference join: key %s not in %v", k, r.Schema.Names())
		}
	}
	return idx
}

// refDistinct keeps the first occurrence of every tuple, comparing
// tuples value by value through Value.Key.
func refDistinct(r *Relation) *Relation {
	out := NewRelation(r.Name, r.Schema)
	seen := map[string]bool{}
	for _, t := range r.Tuples {
		var k strings.Builder
		for _, v := range t {
			k.WriteString(v.Key())
		}
		if !seen[k.String()] {
			seen[k.String()] = true
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// refUnion is a's tuples then b's (UNION ALL), deduplicated unless all.
func refUnion(a, b *Relation, all bool) *Relation {
	out := NewRelation(a.Name, a.Schema)
	out.Tuples = append(append(out.Tuples, a.Tuples...), b.Tuples...)
	if !all {
		return refDistinct(out)
	}
	return out
}

// refStableSort insertion-sorts a copy of xs: an element moves before
// its predecessor only when strictly less, so equal elements keep their
// order.
func refStableSort[T any](xs []T, less func(x, y T) bool) []T {
	out := append([]T(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// refSort stably orders r by the keys, each ascending or descending.
func refSort(r *Relation, keys []OrderKey) (*Relation, error) {
	type keyed struct {
		t  Tuple
		kv []Value
	}
	rows := make([]keyed, len(r.Tuples))
	for i, t := range r.Tuples {
		rows[i] = keyed{t: t, kv: make([]Value, len(keys))}
		for ki, k := range keys {
			v, err := Eval(k.Expr, r.Schema, t)
			if err != nil {
				return nil, err
			}
			rows[i].kv[ki] = v
		}
	}
	rows = refStableSort(rows, func(x, y keyed) bool {
		for ki, k := range keys {
			c := x.kv[ki].SortKey(y.kv[ki])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := NewRelation(r.Name, r.Schema)
	for _, row := range rows {
		out.Tuples = append(out.Tuples, row.t)
	}
	return out, nil
}

// refLimit keeps the first n tuples (n < 0 keeps all).
func refLimit(r *Relation, n int) *Relation {
	out := NewRelation(r.Name, r.Schema)
	if n < 0 || n > len(r.Tuples) {
		n = len(r.Tuples)
	}
	out.Tuples = append(out.Tuples, r.Tuples[:n]...)
	return out
}

// drain runs an iterator tree to completion.
func drain(t *testing.T, it Iterator) *Relation {
	t.Helper()
	out, err := Collect(context.Background(), it, "")
	if err != nil {
		t.Fatal(err)
	}
	return out
}
