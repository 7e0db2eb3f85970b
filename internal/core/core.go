// Package core is the public facade of the reproduction: it owns one
// generated SSBM dataset and lazily materializes every physical design the
// paper evaluates — the C-Store-style column store in all Figure 7
// configurations, the row-oriented "System X" in all Figure 6 designs, the
// row-in-column-store MVs of Figure 5, and the denormalized tables of
// Figure 8 — behind a single Run entry point.
//
// Typical use:
//
//	db := core.Open(0.1)
//	res, stats, err := db.Run("2.1", core.ColumnStore(exec.FullOpt))
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rowexec"
	"repro/internal/segstore"
	"repro/internal/ssb"
	"repro/internal/wal"
)

// Kind selects the engine family.
type Kind uint8

const (
	// KindColumn runs the column executor (exec) with a Figure 7
	// configuration.
	KindColumn Kind = iota
	// KindColumnRowMV runs the "CS (Row-MV)" path: row-oriented
	// materialized views stored inside the column store.
	KindColumnRowMV
	// KindRow runs the row executor (rowexec) with a Figure 6 design.
	KindRow
	// KindDenorm runs against the pre-joined denormalized table
	// (Figure 8).
	KindDenorm
)

// Config identifies one system under test.
type Config struct {
	Kind Kind
	// Col configures the column executor (KindColumn).
	Col exec.Config
	// Design selects the row-store physical design (KindRow).
	Design rowexec.Design
	// Partitioning enables orderdate-year partition pruning (KindRow;
	// the paper's default is on).
	Partitioning bool
	// Denorm selects the denormalized storage variant (KindDenorm).
	Denorm exec.DenormMode
	// SuperTuples replaces the naive (position, value) vertical
	// partitions with super-tuple column tables and positional merge
	// joins (KindRow with Design VerticalPartitioning only) — the
	// row-store improvements the paper's conclusion calls for.
	SuperTuples bool
}

// ColumnStore returns a column-engine config.
func ColumnStore(c exec.Config) Config { return Config{Kind: KindColumn, Col: c} }

// RowMV returns the CS (Row-MV) config.
func RowMV() Config { return Config{Kind: KindColumnRowMV} }

// SuperTupleVP returns the row-store configuration the paper's conclusion
// sketches: vertical partitioning with super tuples, virtual record-ids and
// positional merge joins.
func SuperTupleVP() Config {
	return Config{Kind: KindRow, Design: rowexec.VerticalPartitioning, Partitioning: true, SuperTuples: true}
}

// RowStore returns a row-engine config with partitioning enabled.
func RowStore(d rowexec.Design) Config {
	return Config{Kind: KindRow, Design: d, Partitioning: true}
}

// Denormalized returns a pre-joined table config.
func Denormalized(m exec.DenormMode) Config { return Config{Kind: KindDenorm, Denorm: m} }

// Label renders the paper's name for the configuration.
func (c Config) Label() string {
	switch c.Kind {
	case KindColumn:
		code := c.Col.Code()
		if c.Col.Fused {
			code += "+fused"
		}
		return "CS:" + code
	case KindColumnRowMV:
		return "CS(Row-MV)"
	case KindRow:
		if c.SuperTuples {
			return "RS:VP(super)"
		}
		if !c.Partitioning {
			return fmt.Sprintf("RS:%v(nopart)", c.Design)
		}
		return fmt.Sprintf("RS:%v", c.Design)
	default:
		return c.Denorm.String()
	}
}

// Engine describes the physical execution path Run takes under this
// configuration — which engine family runs and in what mode. Only the fused
// pipeline is parallel; its count is the most morsel workers a query gets
// (a query's trace and Explain report how many its group space and block
// count allowed).
func (c Config) Engine() string {
	switch c.Kind {
	case KindColumn:
		switch {
		case !c.Col.LateMat:
			return "column store: early-materialized row-at-a-time pipeline (workers=1)"
		case c.Col.FusedActive():
			return fmt.Sprintf("column store: fused morsel-parallel pipeline (workers<=%d)", max(c.Col.Workers, 1))
		default:
			return "column store: per-probe late-materialized pipeline (workers=1)"
		}
	case KindColumnRowMV:
		return "column store: row-oriented MV (string tuple reconstruction)"
	case KindRow:
		if c.SuperTuples {
			return "row store System X: super-tuple vertical partitions with positional merge joins"
		}
		return fmt.Sprintf("row store System X: %v design (partition pruning %v)", c.Design, c.Partitioning)
	default:
		return fmt.Sprintf("denormalized pre-joined table (%s), no joins", c.Denorm)
	}
}

// RunStats reports what one query execution cost.
type RunStats struct {
	// Wall is measured execution time (CPU, in-memory).
	Wall time.Duration
	// IO is the simulated I/O the execution performed.
	IO iosim.Stats
	// IOTime is IO priced by the disk model.
	IOTime time.Duration
	// Total is Wall + IOTime: the paper-comparable "query time".
	Total time.Duration
}

// DB owns the dataset and the lazily built physical designs. Data is nil
// for a segment-store-backed DB (OpenSegmentStore): those serve the
// compressed column engines straight from the file's buffer pool, and
// designs that need the raw dataset (row stores, denormalized tables,
// plain-storage column builds, the brute-force reference) are rejected by
// validation instead of being silently rebuilt.
type DB struct {
	SF   float64
	Data *ssb.Data
	Disk iosim.Model

	// seg is the open segment store for file-backed DBs (nil otherwise).
	seg *segstore.Store

	// colC is the compressed column store, published by ColumnDB's
	// onceColC. Atomic so validate can read its epoch without building it,
	// concurrently with the first call that does.
	colC      atomic.Pointer[exec.DB]
	colPlain  *exec.DB
	sx        *rowexec.SystemX
	rowMVs    map[int]*exec.RowMV
	denorms   map[exec.DenormMode]*exec.DenormDB
	onceColC  sync.Once
	oncePlain sync.Once
	onceSX    sync.Once
	onceRowMV sync.Once
	onceSuper sync.Once
	superVPs  map[string]*rowexec.SuperVP
	muDenorm  sync.Mutex
}

// Open generates the dataset at the given scale factor. Physical designs
// are built on first use.
func Open(sf float64) *DB {
	return OpenData(ssb.Generate(sf))
}

// OpenData wraps an existing dataset instead of generating one.
func OpenData(d *ssb.Data) *DB {
	return &DB{
		SF:      d.SF,
		Data:    d,
		Disk:    iosim.PaperDisk,
		denorms: map[exec.DenormMode]*exec.DenormDB{},
	}
}

// OpenSegmentStore opens a segment-store file (written by ssb-gen -out)
// with the given buffer-pool byte budget (<= 0 for unbounded). The
// returned DB executes the compressed column-store configurations over
// pool-backed columns; engines that need the raw dataset are rejected at
// validation.
func OpenSegmentStore(path string, memBudget int64) (*DB, error) {
	return OpenSegmentStoreWith(path, segstore.OpenOptions{MemBudget: memBudget})
}

// OpenSegmentStoreWith is OpenSegmentStore with full open options — in
// particular an injected recovery-log sink, so daemons route torn-tail
// recovery diagnostics through their own logger instead of the library's
// stderr fallback (and can surface Store.RecoveryNote on /stats).
func OpenSegmentStoreWith(path string, opts segstore.OpenOptions) (*DB, error) {
	st, err := segstore.OpenWith(path, opts)
	if err != nil {
		return nil, err
	}
	return &DB{
		SF:      st.SF(),
		Disk:    iosim.PaperDisk,
		seg:     st,
		denorms: map[exec.DenormMode]*exec.DenormDB{},
	}, nil
}

// SegmentStore returns the backing segment store (pool statistics, segment
// counts), or nil for in-memory DBs.
func (db *DB) SegmentStore() *segstore.Store { return db.seg }

// ColumnDB returns the column store with compressed (true) or plain storage.
// For a segment-backed DB the compressed store's columns fault through the
// file's buffer pool; plain storage requires the raw dataset (validation
// rejects it before reaching here).
func (db *DB) ColumnDB(compressed bool) *exec.DB {
	if compressed {
		db.onceColC.Do(func() {
			if db.seg != nil {
				col, err := exec.OpenSegmentDB(db.seg)
				if err != nil {
					panic(err) // validated at Open: tables present and well-formed
				}
				db.colC.Store(col)
				return
			}
			db.colC.Store(exec.BuildDB(db.Data, true))
		})
		return db.colC.Load()
	}
	db.oncePlain.Do(func() { db.colPlain = exec.BuildDB(db.Data, false) })
	return db.colPlain
}

// RowDB returns the row store with all designs materialized. Join work
// memory is scaled with the dataset so the paper's memory-pressure regime
// (1.5 GB against an SF=10 dataset) is preserved at reduced scale factors:
// the index-only design's giant rid hash joins spill at any SF, as they did
// on the paper's testbed.
func (db *DB) RowDB() *rowexec.SystemX {
	db.onceSX.Do(func() {
		db.sx = rowexec.Build(db.Data, rowexec.AllDesigns)
		wm := int64(float64(1536<<20) * db.SF / 10)
		if wm < 1<<20 {
			wm = 1 << 20
		}
		db.sx.WorkMemBytes = wm
	})
	return db.sx
}

// rowMV returns the per-flight row-oriented MV.
func (db *DB) rowMV(flight int) *exec.RowMV {
	db.onceRowMV.Do(func() {
		db.rowMVs = map[int]*exec.RowMV{}
		col := db.ColumnDB(true)
		for f := 1; f <= 4; f++ {
			db.rowMVs[f] = col.BuildRowMV(f)
		}
	})
	return db.rowMVs[flight]
}

// DenormDB returns the pre-joined table in the given mode.
func (db *DB) DenormDB(m exec.DenormMode) *exec.DenormDB {
	db.muDenorm.Lock()
	defer db.muDenorm.Unlock()
	if d, ok := db.denorms[m]; ok {
		return d
	}
	d := exec.BuildDenorm(db.Data, m)
	db.denorms[m] = d
	return d
}

// EnableIngest attaches the write-optimized store to the compressed column
// engine: inserts land in an in-memory delta that every compressed
// column-store query unions with the sealed data, and the tuple mover
// freezes full 64K-row prefixes into the segment store (on disk for
// file-backed DBs). background starts the compactor goroutine; tests that
// need deterministic epochs leave it off and call exec's CompactNow.
// maxWSBytes caps delta memory (0 = unbounded); past it Insert returns
// exec.ErrWriteStoreFull as backpressure. The rest of the write path
// (Delete, Epoch, stats, shutdown) is exec.DB's, reached via ColumnDB(true).
func (db *DB) EnableIngest(background bool, maxWSBytes int64) error {
	return db.EnableIngestWAL(background, maxWSBytes, "", wal.Options{})
}

// EnableIngestWAL is EnableIngest with a durability log. When walPath is
// non-empty, a write-ahead log is opened (and replayed — an existing log's
// pending inserts and deletion vectors are reconstructed into the write
// store before anything else runs) so every accepted insert and delete is
// group-committed to disk before acking. Replay happens before the
// background compactor starts, so recovery never races the tuple mover.
func (db *DB) EnableIngestWAL(background bool, maxWSBytes int64, walPath string, walOpts wal.Options) error {
	col := db.ColumnDB(true)
	if err := col.EnableDelta(maxWSBytes); err != nil {
		return err
	}
	if walPath != "" {
		if err := col.EnableWAL(walPath, walOpts); err != nil {
			return err
		}
	}
	if background {
		col.StartCompactor()
	}
	return nil
}

// Insert appends logical lineorder rows to the write store, returning the
// new epoch. EnableIngest must have been called.
func (db *DB) Insert(b *ssb.Lineorders) (int64, error) {
	return db.ColumnDB(true).Insert(b)
}

// FlushIngest seals every pending delta row into the read-optimized store
// (the zero-loss shutdown path for file-backed DBs). No-op when ingest is
// off.
func (db *DB) FlushIngest() error {
	return db.ColumnDB(true).FlushDelta()
}

// Run executes the named SSBM query under the given configuration,
// returning the canonical result and cost statistics.
func (db *DB) Run(queryID string, cfg Config) (*ssb.Result, RunStats, error) {
	q := ssb.QueryByID(queryID)
	if q == nil {
		return nil, RunStats{}, fmt.Errorf("core: unknown SSBM query %q", queryID)
	}
	return db.RunPlan(q, cfg)
}

// RunPlan executes an arbitrary logical plan (for example one parsed from
// SQL by internal/sql) under the given configuration.
func (db *DB) RunPlan(q *ssb.Query, cfg Config) (*ssb.Result, RunStats, error) {
	return db.RunPlanCtx(context.Background(), q, cfg)
}

// RunPlanCtx is RunPlan with cancellation. The column engines check ctx
// between 64K-row blocks and abandon the query promptly, releasing every
// pinned segment; the row-oriented engines run to completion and the
// cancellation is surfaced afterwards. Each call owns its iosim accounting,
// so concurrent calls on one DB never interleave stats.
func (db *DB) RunPlanCtx(ctx context.Context, q *ssb.Query, cfg Config) (*ssb.Result, RunStats, error) {
	if err := db.validate(q, cfg); err != nil {
		return nil, RunStats{}, err
	}
	var st iosim.Stats
	var res *ssb.Result
	var start time.Time
	var err error
	switch cfg.Kind {
	case KindColumn:
		col := db.ColumnDB(cfg.Col.Compression)
		start = time.Now() // exclude lazy build
		res, err = col.RunCtx(ctx, q, cfg.Col, &st)
	case KindColumnRowMV:
		mv := db.rowMV(q.Flight)
		start = time.Now() // exclude lazy MV construction
		res, err = db.ColumnDB(true).RunRowMV(q, mv, &st)
	case KindRow:
		sx := db.RowDB()
		if cfg.SuperTuples {
			db.onceSuper.Do(func() { db.superVPs = rowexec.BuildSuperVPs(db.Data) })
			start = time.Now()
			res = sx.RunSuperVP(q, db.superVPs, &st)
			break
		}
		start = time.Now() // exclude lazy build
		res = sx.RunOpt(q, cfg.Design, cfg.Partitioning, &st)
	default:
		d := db.DenormDB(cfg.Denorm)
		start = time.Now()
		res = d.Run(q, &st)
	}
	if err != nil {
		return nil, RunStats{}, err
	}
	if err := ctx.Err(); err != nil {
		// Row-oriented engines do not observe ctx mid-run; drop their
		// completed result rather than hand back work the caller abandoned.
		return nil, RunStats{}, err
	}
	wall := time.Since(start)
	stats := RunStats{Wall: wall, IO: st, IOTime: db.Disk.Time(st)}
	stats.Total = stats.Wall + stats.IOTime
	return res, stats, nil
}

// validate rejects configuration/plan combinations whose physical design
// does not cover the plan.
func (db *DB) validate(q *ssb.Query, cfg Config) error {
	if db.Data == nil {
		// Segment-store-backed: only the compressed column engines run
		// without the raw dataset.
		if cfg.Kind != KindColumn {
			return fmt.Errorf("core: %s needs the raw dataset; a segment store serves only compressed column-store configurations", cfg.Label())
		}
		if !cfg.Col.Compression {
			return fmt.Errorf("core: segment stores hold the compressed physical design; %s needs a plain-storage build from the raw dataset", cfg.Label())
		}
	}
	if c := db.colC.Load(); c != nil && c.Epoch() > 0 {
		// Once rows have been inserted, only the compressed column store
		// (the engine carrying the write store) answers correctly; every
		// other physical design was built from the frozen base and would
		// silently miss the inserted rows.
		if cfg.Kind != KindColumn || !cfg.Col.Compression {
			return fmt.Errorf("core: %s serves the frozen base only; after inserts, use a compressed column-store configuration (it unions the write store)", cfg.Label())
		}
	}
	switch cfg.Kind {
	case KindColumnRowMV:
		if q.Flight < 1 || q.Flight > 4 {
			return fmt.Errorf("core: %s requires a query covered by a per-flight MV (query %s has no flight)", cfg.Label(), q.ID)
		}
	case KindRow:
		if cfg.Design == rowexec.MaterializedViews && (q.Flight < 1 || q.Flight > 4) {
			return fmt.Errorf("core: %s requires a query covered by a per-flight MV (query %s has no flight)", cfg.Label(), q.ID)
		}
	case KindDenorm:
		if !db.DenormDB(cfg.Denorm).Supports(q) {
			return fmt.Errorf("core: query %s references attributes outside the denormalized schema", q.ID)
		}
	}
	return nil
}

// Explain renders the physical plan for the named query under cfg without
// executing it against fact data.
func (db *DB) Explain(queryID string, cfg Config) (string, error) {
	q := ssb.QueryByID(queryID)
	if q == nil {
		return "", fmt.Errorf("core: unknown SSBM query %q", queryID)
	}
	return db.ExplainPlan(q, cfg)
}

// ExplainPlan is Explain for an arbitrary logical plan.
func (db *DB) ExplainPlan(q *ssb.Query, cfg Config) (string, error) {
	if err := db.validate(q, cfg); err != nil {
		return "", err
	}
	switch cfg.Kind {
	case KindColumn:
		return db.ColumnDB(cfg.Col.Compression).Explain(q, cfg.Col), nil
	case KindColumnRowMV:
		return fmt.Sprintf("Query %s on CS(Row-MV): scan flight-%d blob column, parse each tuple, row-at-a-time processing\n", q.ID, q.Flight), nil
	case KindRow:
		return db.RowDB().Explain(q, cfg.Design), nil
	default:
		return fmt.Sprintf("Query %s on %s: predicates and group-by applied directly to inlined denormalized columns (no joins)\n", q.ID, cfg.Denorm), nil
	}
}

// Verify runs the query under cfg and checks the result against the
// brute-force reference, returning an error describing any mismatch.
func (db *DB) Verify(queryID string, cfg Config) error {
	if db.Data == nil {
		return fmt.Errorf("core: verification needs the raw dataset; segment stores are checked against the pinned golden file instead (go test ./internal/core -run TestGoldenSegmentStore)")
	}
	got, _, err := db.Run(queryID, cfg)
	if err != nil {
		return err
	}
	want := ssb.Reference(db.Data, ssb.QueryByID(queryID))
	if !got.Equal(want) {
		return fmt.Errorf("core: %s under %s diverges from reference:\n%s",
			queryID, cfg.Label(), want.Diff(got))
	}
	return nil
}

// Figure5Systems returns the four configurations of paper Figure 5.
func Figure5Systems() []Config {
	return []Config{
		RowStore(rowexec.Traditional),       // RS
		RowStore(rowexec.MaterializedViews), // RS (MV)
		ColumnStore(exec.FullOpt),           // CS
		RowMV(),                             // CS (Row-MV)
	}
}

// Figure6Systems returns the five row-store designs of Figure 6.
func Figure6Systems() []Config {
	out := make([]Config, 0, 5)
	for _, d := range rowexec.Designs() {
		out = append(out, RowStore(d))
	}
	return out
}

// Figure7Systems returns the seven column-store ablation configurations.
func Figure7Systems() []Config {
	out := make([]Config, 0, 7)
	for _, c := range exec.Figure7Configs() {
		out = append(out, ColumnStore(c))
	}
	return out
}

// Figure8Systems returns baseline C-Store plus the three denormalized
// variants of Figure 8.
func Figure8Systems() []Config {
	return []Config{
		ColumnStore(exec.FullOpt),
		Denormalized(exec.DenormNoC),
		Denormalized(exec.DenormIntC),
		Denormalized(exec.DenormMaxC),
	}
}
