package ssb

// Aggregator accumulates a query's aggregates under rendered group keys.
// It is the accumulator of the engines that key groups by value rather
// than by code — the row-store plans and the pre-joined table. Reference
// keeps its own accumulator on purpose, so the oracle shares no code with
// the engines it checks.
type Aggregator struct {
	queryID string
	grouped bool
	specs   []AggSpec
	totals  []int64
	rows    int64
	groups  map[string]*aggGroup
	kb      []byte
}

type aggGroup struct {
	keys  []string
	cells []int64
}

// NewAggregator returns an empty accumulator for q's aggregate list and
// grouping.
func NewAggregator(q *Query) *Aggregator {
	a := &Aggregator{
		queryID: q.ID,
		grouped: len(q.GroupBy) > 0,
		specs:   q.AggSpecs(),
		groups:  map[string]*aggGroup{},
	}
	a.totals = make([]int64, len(a.specs))
	InitCells(a.specs, a.totals)
	return a
}

// Add accumulates one qualifying row's evaluated expression values (one per
// spec; COUNT entries are ignored) under the given group keys. keys is
// borrowed: the aggregator copies it on first sight of a group.
func (a *Aggregator) Add(keys []string, vals []int64) {
	cells := a.totals
	if a.grouped {
		a.kb = a.kb[:0]
		for i, k := range keys {
			if i > 0 {
				a.kb = append(a.kb, 0)
			}
			a.kb = append(a.kb, k...)
		}
		g, ok := a.groups[string(a.kb)]
		if !ok {
			g = &aggGroup{
				keys:  append([]string(nil), keys...),
				cells: make([]int64, len(a.specs)),
			}
			InitCells(a.specs, g.cells)
			a.groups[string(a.kb)] = g
		}
		cells = g.cells
	} else {
		a.rows++
	}
	for k, s := range a.specs {
		cells[k] = s.Combine(cells[k], vals[k])
	}
}

// Result renders the canonical query result: one all-zero row for an
// ungrouped query no row reached, no rows for a grouped one.
func (a *Aggregator) Result() *Result {
	if !a.grouped {
		return NewResult(a.queryID, []ResultRow{
			MakeRow(nil, FinalizeCells(a.specs, a.totals, a.rows)),
		})
	}
	rows := make([]ResultRow, 0, len(a.groups))
	for _, g := range a.groups {
		rows = append(rows, MakeRow(g.keys, g.cells))
	}
	return NewResult(a.queryID, rows)
}

// AggEval resolves an aggregate list's expression operands to positions in
// whatever row representation a plan uses (heap rows, []int32 tuples,
// gathered column batches) and evaluates them into a reused per-row value
// slice.
type AggEval struct {
	specs  []AggSpec
	ia, ib []int // positions per spec (-1 unused)
	out    []int64
}

// NewAggEval maps each spec's expression columns through pos.
func NewAggEval(specs []AggSpec, pos func(string) int) *AggEval {
	cols, ia, ib := AggInputs(specs)
	at := make([]int, len(cols))
	for i, c := range cols {
		at[i] = pos(c)
	}
	resolve := func(src []int) []int {
		out := make([]int, len(src))
		for i, v := range src {
			if v < 0 {
				out[i] = -1
			} else {
				out[i] = at[v]
			}
		}
		return out
	}
	return &AggEval{specs: specs, ia: resolve(ia), ib: resolve(ib), out: make([]int64, len(specs))}
}

// Eval evaluates the expressions reading column values through get; the
// returned slice is reused across calls.
func (a *AggEval) Eval(get func(int) int32) []int64 {
	for k, s := range a.specs {
		if s.Func == FuncCount {
			a.out[k] = 0
			continue
		}
		var va, vb int32
		va = get(a.ia[k])
		if a.ib[k] >= 0 {
			vb = get(a.ib[k])
		}
		a.out[k] = s.Expr.Eval(va, vb)
	}
	return a.out
}
