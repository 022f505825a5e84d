package relalg

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlparse"
)

func testRel(name string, cols string, rows ...[]Value) *Relation {
	var schema Schema
	for _, c := range strings.Split(cols, ",") {
		parts := strings.Split(strings.TrimSpace(c), ":")
		k := KindString
		if len(parts) > 1 && parts[1] == "num" {
			k = KindNumber
		}
		schema.Columns = append(schema.Columns, Column{Name: parts[0], Type: k})
	}
	r := NewRelation(name, schema)
	for _, row := range rows {
		r.MustAdd(row...)
	}
	return r
}

// figure2R1 builds the paper's relation R1 (qualified as rl).
func figure2R1() *Relation {
	return testRel("rl", "rl.cname, rl.revenue:num, rl.currency",
		[]Value{StrV("IBM"), NumV(100000000), StrV("USD")},
		[]Value{StrV("NTT"), NumV(1000000), StrV("JPY")},
	)
}

func figure2R2() *Relation {
	return testRel("r2", "r2.cname, r2.expenses:num",
		[]Value{StrV("IBM"), NumV(150000000)},
		[]Value{StrV("NTT"), NumV(5000000)},
	)
}

func expr(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("SELECT a FROM t WHERE " + src)
	if err != nil {
		t.Fatalf("bad test expression %q: %v", src, err)
	}
	return stmt.(*sqlparse.Select).Where
}

func TestValueBasics(t *testing.T) {
	if !NumV(3).Equal(NumV(3)) || NumV(3).Equal(NumV(4)) {
		t.Error("numeric equality broken")
	}
	if StrV("a").Equal(NumV(0)) {
		t.Error("cross-kind equality should be false")
	}
	if Null.Equal(Null) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
	if c, ok := StrV("apple").Compare(StrV("banana")); !ok || c >= 0 {
		t.Error("string compare broken")
	}
	if _, ok := StrV("a").Compare(NumV(1)); ok {
		t.Error("cross-kind compare should be not-ok")
	}
	if NumV(1).Key() == StrV("1").Key() {
		t.Error("hash keys must distinguish kinds")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("3.5", KindNumber)
	if err != nil || v.N != 3.5 {
		t.Errorf("ParseValue number: %v %v", v, err)
	}
	if v, _ := ParseValue("", KindNumber); !v.IsNull() {
		t.Error("empty text should parse to NULL")
	}
	if _, err := ParseValue("abc", KindNumber); err == nil {
		t.Error("bad number accepted")
	}
	if v, err := ParseValue("TRUE", KindBool); err != nil || !v.B {
		t.Error("bool parse broken")
	}
}

func TestSchemaIndexQualified(t *testing.T) {
	s := NewSchema(Column{"rl.cname", KindString}, Column{"r2.cname", KindString}, Column{"r2.expenses", KindNumber})
	if s.Index("rl.cname") != 0 || s.Index("r2.expenses") != 2 {
		t.Error("exact lookup broken")
	}
	if s.Index("cname") != -1 {
		t.Error("ambiguous unqualified lookup should fail")
	}
	if s.Index("expenses") != 2 {
		t.Error("unique suffix lookup should succeed")
	}
}

func TestFilterPaperNaiveQuery(t *testing.T) {
	// The naive Q1 over Figure 2 data returns the empty answer — the
	// paper's motivating "incorrect" result.
	joined := drain(t, NewNestedLoop(NewScan(figure2R1()), figure2R2(), expr(t, "rl.cname = r2.cname")))
	if joined.Len() != 2 {
		t.Fatalf("join size = %d, want 2", joined.Len())
	}
	res := drain(t, NewFilter(NewScan(joined), expr(t, "rl.revenue > r2.expenses")))
	// The paper: "the (empty) answer returned by executing Q1 is clearly
	// not a 'correct' answer". IBM: 1e8 < 1.5e8; NTT naively 1e6 < 5e6.
	if res.Len() != 0 {
		t.Errorf("naive Q1 should return the empty answer, got:\n%s", res)
	}
}

func TestProjectComputed(t *testing.T) {
	r := figure2R1()
	out := drain(t, NewProject(NewScan(r), []ProjectItem{
		{Name: "cname", Expr: sqlparse.Col("rl", "cname")},
		{Name: "rev_k", Expr: sqlparse.Bin("/", sqlparse.Col("rl", "revenue"), sqlparse.Num(1000))},
	}))
	if out.Schema.Columns[1].Type != KindNumber {
		t.Error("computed column type not inferred")
	}
	if out.Tuples[0][1].N != 100000 {
		t.Errorf("rev_k = %v", out.Tuples[0][1])
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	a := figure2R1()
	b := figure2R2()
	nl := drain(t, NewNestedLoop(NewScan(a), b, expr(t, "rl.cname = r2.cname")))
	hj := hashJoin(t, a, b, []string{"rl.cname"}, []string{"r2.cname"})
	if !SameTuples(nl, hj) {
		t.Errorf("hash join != nested loop:\n%s\nvs\n%s", nl, hj)
	}
}

// hashJoin drains a hash join of a and b that builds the smaller side.
func hashJoin(t *testing.T, a, b *Relation, aKeys, bKeys []string) *Relation {
	t.Helper()
	buildLeft := !(len(b.Tuples) < len(a.Tuples))
	hj, err := NewHashJoin(NewScan(a), NewScan(b), aKeys, bKeys, nil, buildLeft, nil)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, hj)
}

// sameOrder reports whether two relations hold the same tuple sequence.
func sameOrder(a, b *Relation) bool {
	return slices.Equal(rows(a), rows(b))
}

// Property: hash join and nested-loop join both equal the reference
// join on random data.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.k:num, a.v:num")
		b := testRel("b", "b.k:num, b.w:num")
		for i := 0; i < r.Intn(20); i++ {
			a.MustAdd(NumV(float64(r.Intn(5))), NumV(float64(r.Intn(100))))
		}
		for i := 0; i < r.Intn(20); i++ {
			b.MustAdd(NumV(float64(r.Intn(5))), NumV(float64(r.Intn(100))))
		}
		pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
		want, err := refNestedLoop(a, b, pred)
		if err != nil {
			return false
		}
		nl := drain(t, NewNestedLoop(NewScan(a), b, pred))
		hj := hashJoin(t, a, b, []string{"a.k"}, []string{"b.k"})
		return sameOrder(nl, want) && SameTuples(hj, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: selection cascade — filtering on p AND q equals filtering on
// p then on q, and both equal the reference filter.
func TestSelectionCascadeProperty(t *testing.T) {
	p := sqlparse.Bin(">", sqlparse.Col("a", "v"), sqlparse.Num(30))
	q := sqlparse.Bin("<", sqlparse.Col("a", "v"), sqlparse.Num(70))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.v:num")
		for i := 0; i < r.Intn(40); i++ {
			a.MustAdd(NumV(float64(r.Intn(100))))
		}
		pq := sqlparse.Bin("AND", p, q)
		want, err := refFilter(a, pq)
		if err != nil {
			return false
		}
		both := drain(t, NewFilter(NewScan(a), pq))
		cascade := drain(t, NewFilter(NewFilter(NewScan(a), p), q))
		return sameOrder(both, want) && sameOrder(cascade, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: join is commutative up to column order.
func TestJoinCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.k:num")
		b := testRel("b", "b.k:num")
		for i := 0; i < r.Intn(15); i++ {
			a.MustAdd(NumV(float64(r.Intn(4))))
		}
		for i := 0; i < r.Intn(15); i++ {
			b.MustAdd(NumV(float64(r.Intn(4))))
		}
		pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
		// Project both orders to a.k to compare modulo column order.
		k := []ProjectItem{{Name: "k", Expr: sqlparse.Col("a", "k")}}
		pa := drain(t, NewProject(NewNestedLoop(NewScan(a), b, pred), k))
		pb := drain(t, NewProject(NewNestedLoop(NewScan(b), a, pred), k))
		return SameTuples(pa, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnionSetVsAll(t *testing.T) {
	a := testRel("a", "x:num", []Value{NumV(1)}, []Value{NumV(2)})
	b := testRel("b", "x:num", []Value{NumV(2)}, []Value{NumV(3)})
	u, err := NewUnionAll(NewScan(a), NewScan(b))
	if err != nil {
		t.Fatal(err)
	}
	all := drain(t, u)
	if all.Len() != 4 {
		t.Errorf("UNION ALL len = %d, want 4", all.Len())
	}
	set := drain(t, NewDistinct(NewScan(all)))
	if set.Len() != 3 {
		t.Errorf("UNION len = %d, want 3", set.Len())
	}
	if _, err := NewUnionAll(NewScan(a), NewScan(testRel("c", "x:num, y:num"))); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// Property: |A UNION ALL B| = |A| + |B| and |A UNION B| <= that, >= max.
func TestUnionCardinalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "x:num")
		b := testRel("b", "x:num")
		for i := 0; i < r.Intn(20); i++ {
			a.MustAdd(NumV(float64(r.Intn(6))))
		}
		for i := 0; i < r.Intn(20); i++ {
			b.MustAdd(NumV(float64(r.Intn(6))))
		}
		u, err := NewUnionAll(NewScan(a), NewScan(b))
		if err != nil {
			return false
		}
		all := drain(t, u)
		set := drain(t, NewDistinct(NewScan(all)))
		return sameOrder(all, refUnion(a, b, true)) && sameOrder(set, refUnion(a, b, false)) &&
			all.Len() == a.Len()+b.Len() && set.Len() <= all.Len() &&
			set.Len() >= refDistinct(a).Len() && set.Len() >= refDistinct(b).Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortAndLimit(t *testing.T) {
	r := testRel("t", "t.n, t.v:num",
		[]Value{StrV("b"), NumV(2)},
		[]Value{StrV("a"), NumV(3)},
		[]Value{StrV("c"), NumV(1)},
	)
	sorted := drain(t, NewSort(NewScan(r), []OrderKey{{Expr: sqlparse.Col("t", "v"), Desc: true}}, nil))
	if sorted.Tuples[0][0].S != "a" || sorted.Tuples[2][0].S != "c" {
		t.Errorf("sort order wrong: %s", sorted)
	}
	top := drain(t, NewLimit(NewScan(sorted), 2))
	if top.Len() != 2 || top.Tuples[0][0].S != "a" {
		t.Errorf("limit wrong: %s", top)
	}
	if drain(t, NewLimit(NewScan(sorted), -1)).Len() != 3 {
		t.Error("LIMIT -1 should keep all")
	}
}

func TestGroupByAggregates(t *testing.T) {
	r := testRel("s", "s.grp, s.v:num",
		[]Value{StrV("x"), NumV(1)},
		[]Value{StrV("x"), NumV(3)},
		[]Value{StrV("y"), NumV(10)},
	)
	items := []AggItem{
		{Name: "grp", Expr: sqlparse.Col("s", "grp")},
		{Name: "cnt", Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}},
		{Name: "total", Expr: &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
		{Name: "avg", Expr: &sqlparse.FuncCall{Name: "AVG", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
		{Name: "mx", Expr: &sqlparse.FuncCall{Name: "MAX", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
	}
	out, err := GroupBy(r, []sqlparse.Expr{sqlparse.Col("s", "grp")}, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d, want 2", out.Len())
	}
	x := out.Tuples[0]
	if x[0].S != "x" || x[1].N != 2 || x[2].N != 4 || x[3].N != 2 || x[4].N != 3 {
		t.Errorf("group x = %v", x)
	}
}

func TestGroupByHaving(t *testing.T) {
	r := testRel("s", "s.grp, s.v:num",
		[]Value{StrV("x"), NumV(1)},
		[]Value{StrV("x"), NumV(3)},
		[]Value{StrV("y"), NumV(10)},
	)
	items := []AggItem{{Name: "grp", Expr: sqlparse.Col("s", "grp")}}
	having := sqlparse.Bin(">", &sqlparse.FuncCall{Name: "COUNT", Star: true}, sqlparse.Num(1))
	out, err := GroupBy(r, []sqlparse.Expr{sqlparse.Col("s", "grp")}, items, having)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0][0].S != "x" {
		t.Errorf("having result: %s", out)
	}
}

func TestGlobalAggregateOnEmpty(t *testing.T) {
	r := testRel("s", "s.v:num")
	items := []AggItem{
		{Name: "cnt", Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}},
		{Name: "sum", Expr: &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{sqlparse.Col("s", "v")}}},
	}
	out, err := GroupBy(r, nil, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0][0].N != 0 || !out.Tuples[0][1].IsNull() {
		t.Errorf("global aggregate on empty = %s", out)
	}
}

func TestEvalNullSemantics(t *testing.T) {
	r := testRel("t", "t.a:num, t.b:num", []Value{Null, NumV(1)})
	for _, src := range []string{"t.a = t.b", "t.a <> t.b", "t.a < t.b", "t.a = t.a"} {
		ok, err := EvalBool(expr(t, src), r.Schema, r.Tuples[0])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s with NULL should be false", src)
		}
	}
	ok, err := EvalBool(expr(t, "t.a IS NULL"), r.Schema, r.Tuples[0])
	if err != nil || !ok {
		t.Errorf("IS NULL failed: %v %v", ok, err)
	}
	v, err := Eval(expr(t, "t.a + t.b"), r.Schema, r.Tuples[0])
	if err != nil || !v.IsNull() {
		t.Errorf("NULL arithmetic = %v, %v; want NULL", v, err)
	}
}

func TestEvalErrors(t *testing.T) {
	r := testRel("t", "t.a:num", []Value{NumV(1)})
	if _, err := Eval(expr(t, "t.zzz = 1"), r.Schema, r.Tuples[0]); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := Eval(expr(t, "t.a / 0 > 1"), r.Schema, r.Tuples[0]); err == nil {
		t.Error("division by zero accepted")
	}
}

func TestRelationString(t *testing.T) {
	s := figure2R1().String()
	if !strings.Contains(s, "rl.cname") || !strings.Contains(s, "NTT") {
		t.Errorf("table rendering:\n%s", s)
	}
}

func TestDistinct(t *testing.T) {
	r := testRel("t", "x:num", []Value{NumV(1)}, []Value{NumV(1)}, []Value{NumV(2)})
	if drain(t, NewDistinct(NewScan(r))).Len() != 2 {
		t.Error("distinct failed")
	}
}

func TestQualify(t *testing.T) {
	r := testRel("r1", "cname, revenue:num")
	q := r.Qualify("rl")
	if q.Schema.Columns[0].Name != "rl.cname" {
		t.Errorf("qualify: %v", q.Schema.Names())
	}
	// Already-qualified names stay.
	q2 := q.Qualify("zz")
	if q2.Schema.Columns[0].Name != "rl.cname" {
		t.Errorf("requalify changed name: %v", q2.Schema.Names())
	}
}
