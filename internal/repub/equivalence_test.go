package repub

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/security"
	"gridrm/internal/sqlparse"
	"gridrm/internal/web"
)

// This file holds TestRouteEquivalence: a generated query answers alike
// through every route that consolidates several sets into one answer — a
// site's sources, a republisher's views, the legs of an all-sites fan-out and
// the partial aggregates pushed down to them — and what it answers is what a
// reference written here, without sqlparse, says: merge the raw rows, filter,
// group, sort, limit, project.

// eqCols are the Processor columns the fixture fills; every other is NULL.
var eqCols = []string{"HostName", "Model", "CPUCount", "LoadLast1Min"}

// eqRow is one host's cells in eqCols order; nil is NULL.
type eqRow []any

func (r eqRow) get(col string) any { return r[slices.Index(eqCols, col)] }

// eqFleet is the fixture: sites, their sources, each source's rows. Host
// names are unique across the fleet.
type eqFleet struct {
	sites   []string
	sources map[string][]string // site → source URLs
	rows    map[string][]eqRow  // source URL → rows
}

func newEqFleet(rng *rand.Rand) *eqFleet {
	f := &eqFleet{sources: map[string][]string{}, rows: map[string][]eqRow{}}
	pick := func(vals ...any) any { return vals[rng.Intn(len(vals))] }
	for s := 0; s < 4; s++ {
		site := fmt.Sprint("s", s)
		f.sites = append(f.sites, site)
		for k := 0; k < 2; k++ {
			url := fmt.Sprintf("gridrm:tab://%s-%d:1", site, k)
			f.sources[site] = append(f.sources[site], url)
			for h := 0; h < 1+rng.Intn(3); h++ {
				// Dyadic loads sum exactly in any order, so every route's
				// floats are the reference's, bit for bit.
				f.rows[url] = append(f.rows[url], eqRow{
					fmt.Sprintf("%s-%d-h%d", site, k, h),
					pick("alpha", "beta", "gamma", nil),
					pick(int64(2), int64(4), int64(8), nil),
					pick(0.5, 1.25, 2.0, 3.5, 6.0, nil),
				})
			}
		}
	}
	return f
}

// siteRows are the rows of every source of the listed sites.
func (f *eqFleet) siteRows(sites ...string) []eqRow {
	var out []eqRow
	for _, s := range sites {
		for _, url := range f.sources[s] {
			out = append(out, f.rows[url]...)
		}
	}
	return out
}

// tabDriver serves each source's fixture rows as the Processor table,
// finishing the query with sqlparse as a coarse-grained driver does.
type tabDriver struct{ f *eqFleet }

func (d tabDriver) Name() string    { return "jdbc-tab" }
func (d tabDriver) Version() string { return "test" }
func (d tabDriver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	return err == nil && u.Protocol == "tab"
}
func (d tabDriver) Connect(url string, _ driver.Properties) (driver.Conn, error) {
	return &tabConn{d: d, url: url}, nil
}
func (d tabDriver) schema() *schema.DriverSchema {
	m := &schema.GroupMapping{Group: glue.GroupProcessor}
	for _, c := range eqCols {
		m.Fields = append(m.Fields, schema.FieldMapping{GLUEField: c, Native: strings.ToLower(c)})
	}
	return &schema.DriverSchema{Driver: d.Name(), Groups: map[string]*schema.GroupMapping{glue.GroupProcessor: m}}
}

type tabConn struct {
	driver.UnimplementedConn
	d   tabDriver
	url string
}

func (c *tabConn) URL() string                           { return c.url }
func (c *tabConn) Driver() string                        { return c.d.Name() }
func (c *tabConn) Ping() error                           { return nil }
func (c *tabConn) CreateStatement() (driver.Stmt, error) { return &tabStmt{c: c}, nil }

type tabStmt struct {
	driver.UnimplementedStmt
	c *tabConn
}

func (s *tabStmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	g := glue.MustLookup(glue.GroupProcessor)
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	b := resultset.NewBuilder(meta)
	for _, r := range s.c.d.f.rows[s.c.url] {
		row := make([]any, len(g.Fields))
		for i, c := range eqCols {
			row[g.FieldIndex(c)] = r[i]
		}
		b.Append(row...)
	}
	full, err := b.Build()
	if err != nil {
		return nil, err
	}
	return sqlparse.ApplyToResultSet(q, full)
}

// eqRouter is the entry's Global layer over in-process members: its plan is
// either a direct leg per remote site or one region leg at the republisher.
type eqRouter struct {
	sites  map[string]*core.Gateway
	repub  *Gateway
	region bool
}

func (r *eqRouter) RemoteQueryContext(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
	if site == r.repub.opts.Name {
		return r.repub.QueryContext(ctx, req)
	}
	return r.sites[site].QueryContext(ctx, req)
}

func (r *eqRouter) FanoutPlan(context.Context) ([]core.FanoutLeg, error) {
	remote := []string{"s1", "s2", "s3"}
	if r.region {
		return []core.FanoutLeg{{Target: r.repub.opts.Name, Republisher: true, Covers: remote}}, nil
	}
	var legs []core.FanoutLeg
	for _, s := range remote {
		legs = append(legs, core.FanoutLeg{Target: s})
	}
	return legs, nil
}

// eqQuery is a generated query: its SQL, and what the reference needs.
type eqQuery struct {
	cols    []string // projection of a plain query; nil is *
	where   eqCond
	group   []string
	aggs    []eqAgg // non-empty for an aggregate query, with group
	orderBy string  // an input column, or an aggregate query's output column
	desc    bool
	limit   int // -1: none
}

type eqAgg struct{ fn, col string } // col "" is count(*)

func (a eqAgg) name() string {
	if a.col == "" {
		return a.fn + "(*)"
	}
	return a.fn + "(" + a.col + ")"
}

// eqCond is a WHERE clause: its SQL, and its value on a row, where a
// comparison with NULL is false.
type eqCond struct {
	sql  string
	eval func(eqRow) bool
}

func (q *eqQuery) aggregate() bool { return len(q.aggs) > 0 || len(q.group) > 0 }

// outCols names the answer's columns.
func (q *eqQuery) outCols() []string {
	switch {
	case q.aggregate():
		out := slices.Clone(q.group)
		for _, a := range q.aggs {
			out = append(out, a.name())
		}
		return out
	case q.cols == nil:
		return glue.MustLookup(glue.GroupProcessor).FieldNames()
	}
	return q.cols
}

func (q *eqQuery) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	switch {
	case q.aggregate():
		sb.WriteString(strings.Join(q.outCols(), ", "))
	case q.cols == nil:
		sb.WriteString("*")
	default:
		sb.WriteString(strings.Join(q.cols, ", "))
	}
	sb.WriteString(" FROM Processor")
	if q.where.sql != "" {
		sb.WriteString(" WHERE " + q.where.sql)
	}
	if len(q.group) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(q.group, ", "))
	}
	if q.orderBy != "" {
		sb.WriteString(" ORDER BY " + q.orderBy)
		if q.desc {
			sb.WriteString(" DESC")
		}
	}
	if q.limit >= 0 {
		sb.WriteString(" LIMIT " + strconv.Itoa(q.limit))
	}
	return sb.String()
}

// genCond draws a WHERE clause of depth at most depth over AND, OR, IS
// [NOT] NULL and comparisons.
func genCond(rng *rand.Rand, depth int) eqCond {
	if depth > 0 && rng.Intn(3) == 0 {
		l, r := genCond(rng, depth-1), genCond(rng, depth-1)
		if rng.Intn(2) == 0 {
			return eqCond{"(" + l.sql + " AND " + r.sql + ")", func(row eqRow) bool { return l.eval(row) && r.eval(row) }}
		}
		return eqCond{"(" + l.sql + " OR " + r.sql + ")", func(row eqRow) bool { return l.eval(row) || r.eval(row) }}
	}
	col := eqCols[1+rng.Intn(3)]
	if rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return eqCond{col + " IS NULL", func(row eqRow) bool { return row.get(col) == nil }}
		}
		return eqCond{col + " IS NOT NULL", func(row eqRow) bool { return row.get(col) != nil }}
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	op := ops[rng.Intn(len(ops))]
	var lit any
	switch col {
	case "Model":
		lit = []string{"alpha", "beta", "gamma"}[rng.Intn(3)]
	case "CPUCount":
		lit = []int64{2, 4, 8}[rng.Intn(3)]
	default:
		lit = []float64{0.5, 1.25, 2, 3.5}[rng.Intn(4)]
	}
	sqlLit := fmt.Sprint(lit)
	if s, ok := lit.(string); ok {
		sqlLit = "'" + s + "'"
	}
	return eqCond{col + " " + op + " " + sqlLit, func(row eqRow) bool {
		v := row.get(col)
		if v == nil {
			return false
		}
		c := compareValues(v, lit)
		switch op {
		case "=":
			return c == 0
		case "!=":
			return c != 0
		case "<":
			return c < 0
		case "<=":
			return c <= 0
		case ">":
			return c > 0
		}
		return c >= 0
	}}
}

// genQuery draws a query over the grammar sqlparse accepts.
func genQuery(rng *rand.Rand) *eqQuery {
	q := &eqQuery{limit: -1}
	if rng.Intn(2) == 0 {
		q.where = genCond(rng, 2)
	}
	if rng.Intn(2) == 0 { // aggregate
		for _, c := range []string{"Model", "CPUCount"} {
			if rng.Intn(3) == 0 {
				q.group = append(q.group, c)
			}
		}
		seen := map[string]bool{}
		for n := 1 + rng.Intn(3); len(q.aggs) < n; {
			fn := []string{"count", "sum", "avg", "min", "max"}[rng.Intn(5)]
			col := eqCols[rng.Intn(len(eqCols))]
			switch {
			case fn == "count" && rng.Intn(2) == 0:
				col = ""
			case fn == "sum" || fn == "avg":
				col = []string{"CPUCount", "LoadLast1Min"}[rng.Intn(2)]
			}
			if a := (eqAgg{fn, col}); !seen[a.name()] {
				seen[a.name()] = true
				q.aggs = append(q.aggs, a)
			}
		}
		if rng.Intn(2) == 0 {
			out := q.outCols()
			q.orderBy = out[rng.Intn(len(out))]
		}
	} else {
		if rng.Intn(3) > 0 {
			for _, c := range eqCols {
				if rng.Intn(2) == 0 {
					q.cols = append(q.cols, c)
				}
			}
			if len(q.cols) == 0 {
				q.cols = []string{eqCols[rng.Intn(len(eqCols))]}
			}
		}
		if rng.Intn(3) > 0 {
			q.orderBy = eqCols[rng.Intn(len(eqCols))]
		}
	}
	q.desc = q.orderBy != "" && rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		q.limit = rng.Intn(6)
	}
	return q
}

// compareValues orders two non-NULL cells of one column's kind.
func compareValues(a, b any) int {
	switch x := a.(type) {
	case string:
		return strings.Compare(x, b.(string))
	case int64:
		if y, ok := b.(int64); ok {
			return cmpNum(float64(x), float64(y))
		}
		return cmpNum(float64(x), b.(float64))
	case float64:
		if y, ok := b.(int64); ok {
			return cmpNum(x, float64(y))
		}
		return cmpNum(x, b.(float64))
	}
	panic(fmt.Sprintf("no order on %T", a))
}

func cmpNum(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareNullFirst orders cells with NULL before every value.
func compareNullFirst(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	return compareValues(a, b)
}

// eqAnswer is the reference's answer: its rows before and after LIMIT, each
// with its sort key.
type eqAnswer struct {
	pre, rows []eqOut
}

type eqOut struct {
	vals []any // in outCols order
	key  any   // the ORDER BY cell
}

// reference evaluates q over rows from first principles.
func reference(q *eqQuery, rows []eqRow) eqAnswer {
	var kept []eqRow
	for _, r := range rows {
		if q.where.eval == nil || q.where.eval(r) {
			kept = append(kept, r)
		}
	}
	var outs []eqOut
	if q.aggregate() {
		type group struct {
			rep  eqRow
			rows []eqRow
		}
		var groups []*group
		for _, r := range kept {
			i := slices.IndexFunc(groups, func(g *group) bool {
				for _, c := range q.group {
					if compareNullFirst(g.rep.get(c), r.get(c)) != 0 {
						return false
					}
				}
				return true
			})
			if i < 0 {
				groups, i = append(groups, &group{rep: r}), len(groups)
			}
			groups[i].rows = append(groups[i].rows, r)
		}
		if len(groups) == 0 && len(q.group) == 0 {
			groups = append(groups, &group{})
		}
		for _, g := range groups {
			var vals []any
			for _, c := range q.group {
				vals = append(vals, g.rep.get(c))
			}
			for _, a := range q.aggs {
				vals = append(vals, aggValue(a, g.rows))
			}
			outs = append(outs, eqOut{vals: vals})
		}
	} else {
		for _, r := range kept {
			var vals []any
			for _, c := range q.outCols() {
				if slices.Contains(eqCols, c) {
					vals = append(vals, r.get(c))
				} else {
					vals = append(vals, nil)
				}
			}
			o := eqOut{vals: vals}
			if q.orderBy != "" {
				o.key = r.get(q.orderBy)
			}
			outs = append(outs, o)
		}
	}
	if q.orderBy != "" {
		if q.aggregate() {
			at := slices.Index(q.outCols(), q.orderBy)
			for i := range outs {
				outs[i].key = outs[i].vals[at]
			}
		}
		slices.SortStableFunc(outs, func(a, b eqOut) int {
			if q.desc {
				a, b = b, a
			}
			return compareNullFirst(a.key, b.key)
		})
	}
	ans := eqAnswer{pre: outs, rows: outs}
	if q.limit >= 0 && q.limit < len(outs) {
		ans.rows = outs[:q.limit]
	}
	return ans
}

// aggValue is one aggregate over a group's rows: NULLs skipped, and NULL
// over no value but for a count.
func aggValue(a eqAgg, rows []eqRow) any {
	var vals []any
	for _, r := range rows {
		if a.col == "" {
			vals = append(vals, true)
		} else if v := r.get(a.col); v != nil {
			vals = append(vals, v)
		}
	}
	if a.fn == "count" {
		return int64(len(vals))
	}
	if len(vals) == 0 {
		return nil
	}
	switch a.fn {
	case "min", "max":
		best := vals[0]
		for _, v := range vals[1:] {
			if c := compareValues(v, best); a.fn == "min" && c < 0 || a.fn == "max" && c > 0 {
				best = v
			}
		}
		return best
	}
	var si int64
	var sf float64
	for _, v := range vals {
		switch x := v.(type) {
		case int64:
			si += x
			sf += float64(x)
		case float64:
			sf += x
		}
	}
	if a.fn == "avg" {
		return sf / float64(len(vals))
	}
	if _, ok := vals[0].(int64); ok {
		return si
	}
	return sf
}

// rowKey renders an answer row for multiset comparison.
func rowKey(vals []any) string { return fmt.Sprintf("%#v", vals) }

// checkAnswer compares a route's answer with the reference: as a multiset,
// and as a sequence where ORDER BY is total. Where the sort key ties at the
// LIMIT cut, only the key column is compared; where there is a LIMIT and no
// ORDER BY, the rows kept must be that many of the filtered ones.
func checkAnswer(q *eqQuery, ref eqAnswer, rs *resultset.ResultSet, keyOf func(vals []any) (any, bool)) error {
	cols := q.outCols()
	meta := rs.Metadata()
	if meta.ColumnCount() != len(cols) {
		return fmt.Errorf("columns %v, want %v", meta.ColumnNames(), cols)
	}
	for i, c := range cols {
		if !strings.EqualFold(meta.Column(i).Name, c) {
			return fmt.Errorf("columns %v, want %v", meta.ColumnNames(), cols)
		}
	}
	got := make([][]any, rs.Len())
	for r := range got {
		for c := range cols {
			got[r] = append(got[r], rs.Cell(r, c).Value())
		}
	}
	if len(got) != len(ref.rows) {
		return fmt.Errorf("%d rows, want %d", len(got), len(ref.rows))
	}
	multiset := func(rows [][]any) []string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = rowKey(r)
		}
		slices.Sort(keys)
		return keys
	}
	vals := func(outs []eqOut) [][]any {
		out := make([][]any, len(outs))
		for i, o := range outs {
			out[i] = o.vals
		}
		return out
	}
	cut := len(ref.rows) < len(ref.pre)
	if q.orderBy == "" {
		if !cut {
			if g, w := multiset(got), multiset(vals(ref.rows)); !slices.Equal(g, w) {
				return fmt.Errorf("rows %v, want %v", g, w)
			}
			return nil
		}
		pre := multiset(vals(ref.pre))
		for _, r := range got {
			if !slices.Contains(pre, rowKey(r)) {
				return fmt.Errorf("row %v is not one of the filtered rows", r)
			}
		}
		return nil
	}
	tie := cut && len(ref.rows) > 0 && compareNullFirst(ref.rows[len(ref.rows)-1].key, ref.pre[len(ref.rows)].key) == 0
	if !tie {
		if g, w := multiset(got), multiset(vals(ref.rows)); !slices.Equal(g, w) {
			return fmt.Errorf("rows %v, want %v", g, w)
		}
	}
	for i, r := range got {
		if key, ok := keyOf(r); ok && compareNullFirst(key, ref.rows[i].key) != 0 {
			return fmt.Errorf("row %d sorts by %v, want %v", i, key, ref.rows[i].key)
		}
	}
	total := true
	for i := 1; i < len(ref.pre); i++ {
		total = total && compareNullFirst(ref.pre[i-1].key, ref.pre[i].key) != 0
	}
	if total {
		for i, r := range got {
			if rowKey(r) != rowKey(ref.rows[i].vals) {
				return fmt.Errorf("row %d is %v, want %v", i, r, ref.rows[i].vals)
			}
		}
	}
	return nil
}

// overTheWire returns rs as the client of a gateway reads it: encoded by
// the servlet's codec and decoded by the client's.
func overTheWire(rs *resultset.ResultSet) (*resultset.ResultSet, error) {
	data, err := json.Marshal(web.WireResult{ResultSet: rs})
	if err != nil {
		return nil, err
	}
	var back web.WireResult
	if err := back.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return back.ResultSet, nil
}

// sameOnTheWire compares an answer that crossed the wire with the answer as
// the route made it, row for row, and kind-exactly with the reference: a
// NULL is NULL, and every other cell has the Go type the reference gives
// its column — an Int an int64, a Float a float64, a Time a time.Time — so a
// count or a sum that came back as a float is an error where the
// reference's %#v rendering would not tell.
func sameOnTheWire(ref eqAnswer, sent, got *resultset.ResultSet) error {
	sm, gm := sent.Metadata(), got.Metadata()
	if sm.ColumnCount() != gm.ColumnCount() || sent.Len() != got.Len() {
		return fmt.Errorf("%d columns and %d rows, sent %d and %d", gm.ColumnCount(), got.Len(), sm.ColumnCount(), sent.Len())
	}
	types := make([]reflect.Type, sm.ColumnCount())
	for _, o := range ref.pre {
		for c, v := range o.vals {
			if v != nil && types[c] == nil {
				types[c] = reflect.TypeOf(v)
			}
		}
	}
	for c := 0; c < sm.ColumnCount(); c++ {
		if sm.Column(c) != gm.Column(c) {
			return fmt.Errorf("column %d is %+v, sent %+v", c, gm.Column(c), sm.Column(c))
		}
		for r := 0; r < sent.Len(); r++ {
			want, have := sent.Cell(r, c).Value(), got.Cell(r, c).Value()
			switch {
			case reflect.TypeOf(have) != reflect.TypeOf(want) || have != want:
				return fmt.Errorf("row %d column %d is %#v (%T), sent %#v (%T)", r, c, have, have, want, want)
			case have != nil && types[c] != nil && reflect.TypeOf(have) != types[c]:
				return fmt.Errorf("row %d column %d is a %T, the reference's column holds %v", r, c, have, types[c])
			}
		}
	}
	return nil
}

// TestRouteEquivalence runs seeded generated queries — projection, WHERE
// with AND/OR/IS NULL, ORDER BY, LIMIT, GROUP BY with COUNT/SUM/AVG/MIN/MAX
// — over a four-site fleet with NULL cells, through each route that
// consolidates parts into one answer, and checks every answer against the
// reference:
//   - one source of a site
//   - a site's sources together
//   - a republisher's region of three sites, over snapshot views and over
//     live views
//   - all sites, with a direct leg a site
//   - all sites, with the three behind one region leg; aggregates are pushed
//     down as partials and finalized at the entry
//
// Every answer is also sent through the wire codec, before anything reads
// it in process, and must come back as it was sent, cell for cell and
// kind-exactly with the reference.
func TestRouteEquivalence(t *testing.T) {
	const seed, queries = 20030901, 300
	rng := rand.New(rand.NewSource(seed))
	fleet := newEqFleet(rng)
	admin := security.Principal{Name: "admin", Roles: []string{"operator"}}
	ctx := context.Background()

	sites := map[string]*core.Gateway{}
	dir := gma.NewDirectory(0, nil)
	for _, s := range fleet.sites {
		gw := core.New(core.Config{Name: s})
		t.Cleanup(gw.Close)
		drv := tabDriver{fleet}
		if err := gw.RegisterDriver(drv, drv.schema()); err != nil {
			t.Fatal(err)
		}
		for _, url := range fleet.sources[s] {
			if err := gw.AddSource(core.SourceConfig{URL: url}); err != nil {
				t.Fatal(err)
			}
		}
		sites[s] = gw
		if s != "s0" {
			if err := dir.RegisterContext(ctx, gma.Registration{Name: s, Endpoint: "http://" + s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rp, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Groups: []string{glue.GroupProcessor},
		Query: func(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
			req.Principal = admin
			return sites[site].QueryContext(ctx, req)
		},
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rp.Stop(context.Background()) })
	remote := fleet.siteRows("s1", "s2", "s3")
	waitFor(t, "scrapes", func() bool { return rp.store.Rows() == len(remote) })
	router := &eqRouter{sites: sites, repub: rp}
	sites["s0"].SetGlobalRouter(router)

	type route struct {
		name string
		rows []eqRow
		ask  func(sql string) (*core.Response, error)
	}
	entry := func(opts core.QueryOptions, region bool) func(string) (*core.Response, error) {
		return func(sql string) (*core.Response, error) {
			router.region = region
			opts.SQL, opts.Principal = sql, admin
			return sites["s0"].QueryContext(ctx, opts)
		}
	}
	regionAsk := func(sql string) (*core.Response, error) {
		return rp.QueryContext(ctx, core.QueryOptions{SQL: sql, Principal: admin, Site: rp.opts.Name})
	}
	all := fleet.siteRows(fleet.sites...)
	routes := []route{
		{"one source", fleet.rows[fleet.sources["s0"][1]], entry(core.QueryOptions{Sources: fleet.sources["s0"][1:]}, false)},
		{"local sources", fleet.siteRows("s0"), entry(core.QueryOptions{}, false)},
		{"region over snapshot views", remote, regionAsk},
		{"all sites, direct legs", all, entry(core.QueryOptions{Site: core.AllSites}, false)},
		{"all sites, region leg (snapshots)", all, entry(core.QueryOptions{Site: core.AllSites}, true)},
	}

	hostAt := func(q *eqQuery) int { return slices.Index(q.outCols(), "HostName") }
	keyOf := func(q *eqQuery) func([]any) (any, bool) {
		return func(vals []any) (any, bool) {
			if q.aggregate() {
				return vals[slices.Index(q.outCols(), q.orderBy)], true
			}
			if i := slices.Index(q.outCols(), q.orderBy); i >= 0 {
				return vals[i], true
			}
			if i := hostAt(q); i >= 0 { // host names are unique: find the row's key
				for _, r := range all {
					if r.get("HostName") == vals[i] {
						return r.get(q.orderBy), true
					}
				}
			}
			return nil, false
		}
	}
	generated := make([]*eqQuery, queries)
	for i := range generated {
		generated[i] = genQuery(rng)
	}
	run := func(routes []route) {
		for _, q := range generated {
			sql := q.SQL()
			for _, r := range routes {
				resp, err := r.ask(sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", r.name, sql, err)
				}
				for _, st := range resp.Sources {
					if st.Err != "" {
						t.Fatalf("%s: %s: source %s: %s", r.name, sql, st.Source, st.Err)
					}
				}
				ref := reference(q, r.rows)
				// The wire first: an answer that holds its parts is written
				// from them, before any read here flattens it.
				wired, err := overTheWire(resp.ResultSet)
				if err != nil {
					t.Fatalf("%s: %s: %v", r.name, sql, err)
				}
				if err := checkAnswer(q, ref, resp.ResultSet, keyOf(q)); err != nil {
					t.Errorf("%s: %s: %v", r.name, sql, err)
				}
				if err := sameOnTheWire(ref, resp.ResultSet, wired); err != nil {
					t.Errorf("%s: %s: over the wire: %v", r.name, sql, err)
				}
			}
		}
	}
	run(routes)

	// The same region, fed live: every view leaves its snapshot for the rows
	// pushed to it.
	for _, s := range []string{"s1", "s2", "s3"} {
		for _, url := range fleet.sources[s] {
			for _, r := range fleet.rows[url] {
				rp.store.Upsert(s, glue.GroupProcessor, url, eqCols, []any(r), time.Now())
			}
		}
	}
	run([]route{
		{"region over live views", remote, regionAsk},
		{"all sites, region leg (live)", all, entry(core.QueryOptions{Site: core.AllSites}, true)},
	})
}
