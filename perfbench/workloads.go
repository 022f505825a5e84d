package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/coin"
	"repro/internal/domain"
	"repro/internal/fixture"
	"repro/internal/golden"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/web"
	"repro/internal/wrapper"
	"repro/internal/wrapper/filesrc"
	"repro/internal/wrapper/restsrc"
	"repro/internal/wrapper/sqlsrc"
)

// query is one distinct request a workload sends, with its oracle.
type query struct {
	SQL         string
	Context     string // receiver context; empty for naive requests
	Naive       bool
	Stream      bool // over /api/query/stream instead of /api/query
	Parallelism int  // the request's "parallelism" field; 0 = server default
	// check returns an error when the wire answer is wrong.
	check func(cols []server.ColumnInfo, rows [][]any) error
}

// wrapFunc is applied to every source wrapper before it is registered:
// the identity for the measured system, the timing shim for the traced
// run.
type wrapFunc func(wrapper.Wrapper) wrapper.Wrapper

func identity(w wrapper.Wrapper) wrapper.Wrapper { return w }

// inputs are a workload's seeded inputs and the system they run on.
type inputs struct {
	queries []query
	// newPicker returns a fresh query chooser; each phase's schedule
	// draws from its own.
	newPicker func() func(*rand.Rand) int
	// build assembles the system under test, registering every source
	// through wrap; the returned function releases it.
	build func(wrap wrapFunc) (*coin.System, func(), error)
	// shipped assembles the system the way the repository ships it, when
	// it ships one (paper-mix: coin.Figure2System); nil means build with
	// the identity wrap.
	shipped func() *coin.System
}

// workload is one traffic mix. low and high are the fixed arrival rates
// (requests per second) of the two latency phases and limitMS the p99
// latency limit slo_qps is searched against. The rates are frozen at
// about 1/5 and 2/3 of the slo_qps measured when they were set (median
// of five runs each on a two-core Xeon virtual machine: paper-mix and
// federation about 3,500/s, scaled-join about 88/s).
type workload struct {
	name      string
	low, high float64
	limitMS   float64
	prepare   func(seed int64, root string) (*inputs, error)
}

var workloads = []workload{
	{name: "paper-mix", low: 700, high: 2300, limitMS: 20, prepare: preparePaperMix},
	{name: "scaled-join", low: 18, high: 59, limitMS: 250, prepare: prepareScaledJoin},
	{name: "federation", low: 700, high: 2300, limitMS: 20, prepare: prepareFederation},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// configure sets the system up exactly as cmd/coinserver does.
func configure(sys *coin.System) *coin.System {
	sys.Executor().DefaultParallelism = runtime.GOMAXPROCS(0)
	return sys
}

// register adds a source the way coin.System's Add*Source methods do:
// catalog entry, one registry relation per exported relation with its
// elevation (nil: context-free), and a mediator cache reset.
func register(sys *coin.System, w wrapper.Wrapper, elevation func(rel string) *domain.Elevation) error {
	if err := sys.Catalog.AddSource(w); err != nil {
		return err
	}
	for _, rel := range w.Relations() {
		schema, err := w.Schema(rel)
		if err != nil {
			return err
		}
		if err := sys.Registry.RegisterRelation(rel, schema, elevation(rel)); err != nil {
			return err
		}
	}
	sys.Mediator().Invalidate()
	return nil
}

// figure2Shape assembles a System with the Figure 2 model, contexts and
// elevations over relational sources source1 (r1) and source2 (r2) and
// the given r3 source, which serves the ancillary rate relation.
func figure2Shape(dbs map[string]*store.DB, r3 wrapper.Wrapper, wrap wrapFunc) (*coin.System, error) {
	sys := coin.New(fixture.Model())
	for _, c := range []*domain.Context{fixture.ContextC1(), fixture.ContextC2()} {
		if err := sys.AddContext(c); err != nil {
			return nil, err
		}
	}
	elev := fixture.Registry().ElevationFor
	for _, w := range []wrapper.Wrapper{wrapper.NewRelational(dbs["source1"]), wrapper.NewRelational(dbs["source2"]), r3} {
		if err := register(sys, wrap(w), elev); err != nil {
			return nil, err
		}
	}
	if err := sys.AddAncillary("rate", "r3"); err != nil {
		return nil, err
	}
	return configure(sys), nil
}

// --- answers -------------------------------------------------------------

// canon renders one wire value for comparison. Numbers keep 12
// significant digits, so a SUM reassociated by a parallel plan still
// matches the serial answer.
func canon(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return strconv.FormatFloat(x, 'g', 12, 64)
	case string:
		return strconv.Quote(x)
	case bool:
		return strconv.FormatBool(x)
	}
	return fmt.Sprintf("?%v", v)
}

// wireValue is the JSON form the server gives a relalg value.
func wireValue(v relalg.Value) any {
	switch v.K {
	case relalg.KindNumber:
		return v.N
	case relalg.KindString:
		return v.S
	case relalg.KindBool:
		return v.B
	}
	return nil
}

func canonRows(rows [][]any, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = canon(v)
		}
		out[i] = strings.Join(vals, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

func relRows(rel *relalg.Relation) [][]any {
	rows := make([][]any, len(rel.Tuples))
	for i, t := range rel.Tuples {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = wireValue(v)
		}
		rows[i] = row
	}
	return rows
}

// expectRows is an oracle comparing the answer's rows with want.
func expectRows(want [][]any, ordered bool) func([]server.ColumnInfo, [][]any) error {
	w := canonRows(want, ordered)
	return func(_ []server.ColumnInfo, rows [][]any) error {
		got := canonRows(rows, ordered)
		if len(got) != len(w) {
			return fmt.Errorf("wrong answer: %d rows, want %d", len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				return fmt.Errorf("wrong answer: row %d is %s, want %s", i+1, got[i], w[i])
			}
		}
		return nil
	}
}

// --- paper-mix -----------------------------------------------------------

// template is one query shape of the paper-mix; weight is its fixed
// share of every block of blockLen requests.
type template struct {
	name   string
	weight int
	texts  func(r *rand.Rand) []query
}

const blockLen = 20

// constants draws n distinct seeded constants K = 1000·i + 500, so no
// constant equals a revenue or expense of the data and no predicate sits
// on a boundary.
func constants(r *rand.Rand, n, maxThousands int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		k := r.Intn(maxThousands)*1000 + 500
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func c2Query(sql string) query { return query{SQL: sql, Context: "c2"} }

var paperTemplates = []template{
	{name: "q1", weight: 4, texts: func(r *rand.Rand) []query {
		qs := []query{c2Query(fixture.PaperQ1)}
		for _, k := range constants(r, 99, 120000) {
			qs = append(qs, c2Query(fmt.Sprintf("%s AND rl.revenue > %d", strings.TrimSpace(fixture.PaperQ1), k)))
		}
		return qs
	}},
	{name: "projection", weight: 3, texts: func(*rand.Rand) []query {
		// Every projection carries the converted revenue column, so all
		// texts cost about the same and the seed's popularity order does
		// not change the mix's cost.
		var qs []query
		for _, cols := range []string{"r1.revenue", "r1.cname, r1.revenue", "r1.revenue, r1.cname",
			"r1.revenue, r1.currency", "r1.cname, r1.revenue, r1.currency", "r1.currency, r1.revenue, r1.cname"} {
			qs = append(qs, c2Query("SELECT "+cols+" FROM r1"))
		}
		return qs
	}},
	{name: "selection", weight: 4, texts: func(r *rand.Rand) []query {
		var qs []query
		ks := constants(r, 150, 120000)
		for i, k := range ks {
			if i%2 == 0 {
				qs = append(qs, c2Query(fmt.Sprintf("SELECT r1.cname FROM r1 WHERE r1.revenue > %d", k)))
			} else {
				qs = append(qs, c2Query(fmt.Sprintf("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue < %d", k)))
			}
		}
		return qs
	}},
	{name: "sum", weight: 3, texts: func(r *rand.Rand) []query {
		var qs []query
		for _, k := range constants(r, 100, 120000) {
			qs = append(qs, c2Query(fmt.Sprintf("SELECT SUM(r1.revenue) AS total FROM r1 WHERE r1.revenue > %d", k)))
		}
		return qs
	}},
	{name: "orderby", weight: 3, texts: func(r *rand.Rand) []query {
		var qs []query
		for i, k := range constants(r, 80, 120000) {
			qs = append(qs, c2Query(fmt.Sprintf(
				"SELECT r1.cname, r1.revenue FROM r1 WHERE r1.revenue > %d ORDER BY r1.revenue DESC LIMIT %d", k, 1+i%2)))
		}
		return qs
	}},
	{name: "naive", weight: 3, texts: func(r *rand.Rand) []query {
		var qs []query
		for i, k := range constants(r, 60, 120000) {
			sql := fmt.Sprintf("SELECT r1.cname FROM r1 WHERE r1.revenue > %d", k)
			if i%2 == 1 {
				sql = fmt.Sprintf("%s AND rl.revenue > %d", strings.TrimSpace(fixture.PaperQ1), k)
			}
			qs = append(qs, query{SQL: sql, Naive: true})
		}
		return qs
	}},
}

// zipfCDF is the cumulative distribution of a zipf law with exponent 1
// over n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func preparePaperMix(seed int64, _ string) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}
	type tmpl struct {
		members []int // query indexes, most popular first
		cdf     []float64
	}
	var tmpls []tmpl
	var block []int // template index per block slot
	for ti, t := range paperTemplates {
		qs := t.texts(r)
		perm := r.Perm(len(qs)) // popularity order depends on the seed
		members := make([]int, len(qs))
		for rank, p := range perm {
			members[rank] = len(in.queries) + p
		}
		in.queries = append(in.queries, qs...)
		tmpls = append(tmpls, tmpl{members: members, cdf: zipfCDF(len(qs))})
		for i := 0; i < t.weight; i++ {
			block = append(block, ti)
		}
	}
	if len(block) != blockLen {
		return nil, fmt.Errorf("paper-mix: template weights sum to %d, want %d", len(block), blockLen)
	}
	in.newPicker = func() func(*rand.Rand) int {
		var order []int
		return func(r *rand.Rand) int {
			if len(order) == 0 {
				order = append([]int(nil), block...)
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			t := tmpls[order[0]]
			order = order[1:]
			return t.members[sort.SearchFloat64s(t.cdf, r.Float64())]
		}
	}

	// The oracle: every text answered serially in-process.
	ref := coin.Figure2System()
	for i := range in.queries {
		q := &in.queries[i]
		var (
			rel *relalg.Relation
			err error
		)
		if q.Naive {
			rel, err = ref.QueryNaiveCtx(context.Background(), q.SQL, coin.QueryOptions{})
		} else {
			rel, err = ref.QueryCtx(context.Background(), q.SQL, q.Context, coin.QueryOptions{})
		}
		if err != nil {
			return nil, fmt.Errorf("paper-mix: reference answer for %q: %w", q.SQL, err)
		}
		q.check = expectRows(relRows(rel), strings.Contains(q.SQL, "ORDER BY"))
	}
	// Q1 itself must give the paper's answer, not just agree with the
	// in-process one.
	in.queries[0].check = expectRows([][]any{{"NTT", 9600000.0}}, false)

	in.shipped = func() *coin.System { return configure(coin.Figure2System()) }
	in.build = func(wrap wrapFunc) (*coin.System, func(), error) {
		site := web.NewCurrencySite(web.PaperRates())
		r3 := wrapper.NewWeb("currencyweb", site, wrapper.MustParseSpec(wrapper.CurrencySpecCrawl))
		sys, err := figure2Shape(fixture.Databases(), r3, wrap)
		return sys, func() {}, err
	}
	return in, nil
}

// --- scaled-join ---------------------------------------------------------

const (
	scaledCompanies = 5000
	scaledFloors    = 32
)

func prepareScaledJoin(seed int64, _ string) (*inputs, error) {
	w := fixture.NewScaledWorkload(scaledCompanies, seed)
	want := map[string]float64{}
	var revs []float64
	for _, t := range w.Expected.Tuples {
		want[t[0].S] = t[1].N
		revs = append(revs, t[1].N)
	}
	sort.Float64s(revs)

	// check compares a streamed answer with the expected rows above floor.
	check := func(floor float64) func([]server.ColumnInfo, [][]any) error {
		n := 0
		for _, v := range revs {
			if v > floor {
				n++
			}
		}
		return func(_ []server.ColumnInfo, rows [][]any) error {
			if len(rows) != n {
				return fmt.Errorf("wrong answer: %d rows, want %d", len(rows), n)
			}
			for _, row := range rows {
				name, _ := row[0].(string)
				rev, _ := row[1].(float64)
				exp, ok := want[name]
				if !ok || exp <= floor || math.Abs(rev-exp) > 1e-9*math.Abs(exp) {
					return fmt.Errorf("wrong answer: row %v not expected", row)
				}
			}
			return nil
		}
	}
	in := &inputs{queries: []query{{SQL: fixture.PaperQ1, Context: "c2", Stream: true, check: check(math.Inf(-1))}}}
	// Floors sit midway between adjacent distinct expected revenues of
	// the lower half, so each keeps 50-100% of Q1's rows and none lies
	// on a row's value.
	r := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	for len(in.queries) < 1+scaledFloors {
		j := r.Intn(len(revs) / 2)
		if seen[j] || revs[j+1]-revs[j] < 1 {
			continue
		}
		seen[j] = true
		floor := math.Round((revs[j] + revs[j+1]) / 2)
		if floor <= revs[j] || floor >= revs[j+1] {
			continue
		}
		in.queries = append(in.queries, query{
			SQL:     fmt.Sprintf("%s AND rl.revenue > %d", strings.TrimSpace(fixture.PaperQ1), int64(floor)),
			Context: "c2", Stream: true, check: check(floor),
		})
	}
	in.newPicker = func() func(*rand.Rand) int {
		return func(r *rand.Rand) int {
			if r.Intn(2) == 0 {
				return 0
			}
			return 1 + r.Intn(scaledFloors)
		}
	}
	in.build = func(wrap wrapFunc) (*coin.System, func(), error) {
		dbs := map[string]*store.DB{}
		for _, src := range []struct {
			db, rel string
			schema  relalg.Schema
			rows    []relalg.Tuple
		}{
			{"source1", "r1", fixture.R1Schema(), w.R1.Tuples},
			{"source2", "r2", fixture.R2Schema(), w.R2.Tuples},
			{"currencyweb", "r3", fixture.R3Schema(), w.R3.Tuples},
		} {
			db := store.NewDB(src.db)
			tab := db.MustCreateTable(src.rel, src.schema)
			for _, row := range src.rows {
				if err := tab.Insert(row); err != nil {
					return nil, nil, err
				}
			}
			dbs[src.db] = db
		}
		sys, err := figure2Shape(dbs, wrapper.NewRelational(dbs["currencyweb"]), wrap)
		return sys, func() {}, err
	}
	return in, nil
}

// --- federation ----------------------------------------------------------

// goldenDir is the golden harness's testdata under the repository root.
func goldenDir(root string) string { return filepath.Join(root, "internal", "golden", "testdata") }

func prepareFederation(seed int64, root string) (*inputs, error) {
	dir := goldenDir(root)
	corpus, err := golden.LoadCorpus(filepath.Join(dir, "queries"))
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for _, q := range corpus {
		if q.Mode != "engine" {
			continue // needs the Figure 2 relations
		}
		base, err := golden.ReadBaseline(filepath.Join(dir, "golden"), q.Name)
		if err != nil {
			return nil, err
		}
		in.queries = append(in.queries, query{SQL: q.SQL, Naive: true, Parallelism: q.Parallelism, check: goldenCheck(base)})
	}
	in.newPicker = func() func(*rand.Rand) int {
		return func(r *rand.Rand) int { return r.Intn(len(in.queries)) }
	}
	files := filepath.Join(dir, "files")
	in.build = func(wrap wrapFunc) (*coin.System, func(), error) { return federationSystem(files, wrap) }
	return in, nil
}

// goldenCheck compares a wire answer with a committed golden baseline,
// rendered the way the golden harness renders rows. The plan is not part
// of the answer (the server plans under its own default parallelism), so
// the baseline's plan stands in for it.
func goldenCheck(base *golden.Baseline) func([]server.ColumnInfo, [][]any) error {
	return func(cols []server.ColumnInfo, rows [][]any) error {
		got := &golden.Result{Name: base.Name, SQL: base.SQL, Plan: base.Plan, Ordered: base.Ordered}
		hdr := make([]string, len(cols))
		for i, c := range cols {
			hdr[i] = c.Name + ":" + kindTag(c.Type)
		}
		got.Header = strings.Join(hdr, " | ")
		for _, row := range rows {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = goldenValue(v)
			}
			got.Rows = append(got.Rows, strings.Join(vals, " | "))
		}
		if !got.Ordered {
			sort.Strings(got.Rows)
		}
		if diffs := golden.Compare(base, got); len(diffs) > 0 {
			return fmt.Errorf("wrong answer for %s: %s", base.Name, diffs[0])
		}
		return nil
	}
}

// kindTag maps the wire's column type names to the golden header tags.
func kindTag(t string) string {
	switch t {
	case "number":
		return "num"
	case "bool", "null":
		return t
	}
	return "str"
}

// goldenValue renders a wire value as the golden harness renders data.
func goldenValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return strconv.FormatFloat(x, 'f', -1, 64)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	}
	return fmt.Sprintf("?%v", v)
}

func strCol(n string) relalg.Column  { return relalg.Column{Name: n, Type: relalg.KindString} }
func numCol(n string) relalg.Column  { return relalg.Column{Name: n, Type: relalg.KindNumber} }
func boolCol(n string) relalg.Column { return relalg.Column{Name: n, Type: relalg.KindBool} }

// federationSystem assembles the golden harness's four-backend registry
// (golden.NewFixture) as a coin.System: the same relations and rows, but
// the file backend opened at an explicit directory instead of one
// relative to the working directory. Comparing every answer with the
// committed baselines keeps the two in step.
//
//	hq       in-memory relational   companies, trades
//	archive  CSV/JSON files         earnings, sectors
//	finance  SQL over database/sql  accounts, fx (fx requires cur; IN-lists batch 4-wide)
//	markets  paginated REST         quotes (requires cname), indices — over a loopback listener
func federationSystem(filesDir string, wrap wrapFunc) (*coin.System, func(), error) {
	sys := coin.New(domain.NewModel())
	ctxFree := func(string) *domain.Elevation { return nil }

	hq := store.NewDB("hq")
	companies := hq.MustCreateTable("companies", relalg.NewSchema(strCol("cname"), strCol("country"), numCol("founded")))
	for _, r := range []struct {
		c, co string
		f     float64
	}{
		{"IBM", "US", 1911}, {"NTT", "JP", 1952}, {"SONY", "JP", 1946},
		{"DT", "DE", 1995}, {"BT", "UK", 1980}, {"ACME", "US", 1999},
	} {
		companies.MustInsert(relalg.StrV(r.c), relalg.StrV(r.co), relalg.NumV(r.f))
	}
	tradeNames := []string{"IBM", "NTT", "SONY", "DT", "BT", "ACME"}
	trades := hq.MustCreateTable("trades", relalg.NewSchema(strCol("cname"), numCol("amount")))
	lcg := uint32(12345)
	for i := 0; i < 3000; i++ {
		lcg = lcg*1664525 + 1013904223
		trades.MustInsert(relalg.StrV(tradeNames[lcg%6]), relalg.NumV(float64(lcg%100000)))
	}
	if err := register(sys, wrap(wrapper.NewRelational(hq)), ctxFree); err != nil {
		return nil, nil, err
	}

	files, err := filesrc.New("archive", filesDir)
	if err != nil {
		return nil, nil, err
	}
	if err := register(sys, wrap(files), ctxFree); err != nil {
		return nil, nil, err
	}

	fdb := store.NewDB("financedb")
	accountsSchema := relalg.NewSchema(strCol("cname"), numCol("expenses"), strCol("currency"), boolCol("audited"))
	accounts := fdb.MustCreateTable("accounts", accountsSchema)
	for _, r := range []struct {
		c string
		e float64
		u string
		a bool
	}{
		{"IBM", 5000000, "USD", true}, {"NTT", 3000000, "JPY", true},
		{"SONY", 2500000, "JPY", false}, {"DT", 2000000, "DEM", true},
		{"BT", 1500000, "GBP", false}, {"ACME", 800000, "USD", false},
	} {
		accounts.MustInsert(relalg.StrV(r.c), relalg.NumV(r.e), relalg.StrV(r.u), relalg.BoolV(r.a))
	}
	fxSchema := relalg.NewSchema(strCol("cur"), numCol("usd"))
	fx := fdb.MustCreateTable("fx", fxSchema)
	for _, r := range []struct {
		c string
		v float64
	}{{"USD", 1}, {"JPY", 0.0091}, {"DEM", 0.58}, {"GBP", 1.62}} {
		fx.MustInsert(relalg.StrV(r.c), relalg.NumV(r.v))
	}
	sdb, _ := sqlsrc.OpenMem(fdb)
	finance := sqlsrc.New("finance", sdb)
	finance.Batch = 4
	finance.Require = map[string][]string{"fx": {"cur"}}
	finance.AddRelation("accounts", accountsSchema)
	finance.AddRelation("fx", fxSchema)
	if err := register(sys, wrap(finance), ctxFree); err != nil {
		sdb.Close()
		return nil, nil, err
	}

	mdb := store.NewDB("marketsdb")
	quotes := mdb.MustCreateTable("quotes", relalg.NewSchema(strCol("cname"), numCol("price")))
	for _, r := range []struct {
		c string
		p float64
	}{
		{"IBM", 145.5}, {"NTT", 88}, {"SONY", 61.25},
		{"DT", 17.8}, {"BT", 4.5}, {"ACME", 0.01},
	} {
		quotes.MustInsert(relalg.StrV(r.c), relalg.NumV(r.p))
	}
	indices := mdb.MustCreateTable("indices", relalg.NewSchema(strCol("iname"), numCol("level")))
	for i := 0; i < 12; i++ {
		indices.MustInsert(relalg.StrV(fmt.Sprintf("ix%02d", i)), relalg.NumV(float64(1000+i)))
	}
	rest := restsrc.NewServer(mdb)
	rest.Require = map[string][]string{"quotes": {"cname"}}
	hs := httptest.NewServer(rest)
	release := func() {
		hs.Close()
		sdb.Close()
	}
	markets, err := restsrc.Dial("markets", hs.URL, hs.Client())
	if err != nil {
		release()
		return nil, nil, err
	}
	if err := register(sys, wrap(markets), ctxFree); err != nil {
		release()
		return nil, nil, err
	}
	return configure(sys), release, nil
}
