// Package exec implements the column-oriented query executor modeled on
// C-Store (paper Section 5): late materialization with position lists,
// block iteration, direct operation on compressed data, and the invisible
// join with between-predicate rewriting.
//
// Every optimization is a runtime flag (Config) so the Figure 7 ablation —
// removing column-oriented optimizations until the executor behaves like a
// row store — is a configuration sweep over the same storage.
//
// One execution (DB.RunCtx, run.go) has one shape whatever the flags say:
//
//	snapshot  one consistent (sealed DB, delta view, deletion vectors, epoch) frontier (ingest.go)
//	compile   ssb.Query + Config -> one Plan, join phase 1 run once; group attributes load with a fused plan, else where an engine first extracts (plan.go)
//	scan      the configured engine over the sealed store — fused (fused.go), per-probe (run.go) or early-mat (earlymat.go) — then the fused block routine over the delta's morsels (morsel.go)
//	aggregate every stage accumulates into one aggregator; worker partials merge; one render (agg.go)
//
// Config.Fused alone picks the scan: a fused configuration runs every plan
// on the fused scan — group spaces too wide for dense arrays included, which
// the same aggregator keys by hash — and never re-dispatches to another
// engine. The per-probe pipeline, early materialization and the
// row-oriented MV (rowmv.go; the latter two share one compiled row plan,
// rowplan.go) are the paper's ablation engines: single-threaded, reachable
// only through a Config that asks for them, which the serving layer never
// builds.
package exec

// Config selects which column-oriented optimizations are active. The zero
// value is the most row-store-like configuration ("Ticl" in Figure 7).
type Config struct {
	// BlockIter enables block iteration ("t" in the paper's code):
	// operators process column values as arrays. When false, values are
	// pulled one at a time through an iterator interface ("getNext"),
	// paying a function call per value ("T").
	BlockIter bool
	// InvisibleJoin enables the invisible join with between-predicate
	// rewriting ("I"). When false, joins fall back to late-materialized
	// hash joins: dimension keys go into a hash table, every fact
	// foreign key is probed, and group-by attributes are fetched through
	// the hash table rather than by direct array extraction ("i").
	InvisibleJoin bool
	// Compression enables compressed column storage and direct operation
	// on compressed data ("C"). When false the executor must run against
	// a DB built with BuildDB(..., compressed=false) ("c").
	Compression bool
	// LateMat enables late materialization ("L"): predicates produce
	// position lists and values are fetched only at qualifying
	// positions. When false, tuples are constructed at the start of the
	// plan and processing is row-oriented ("l"), which also precludes
	// the invisible join (paper Section 6.3.2).
	LateMat bool
	// Workers is the fused scan's morsel worker count (0 and 1 both mean
	// one; fusedWorkersFor caps it by block count and drops to one for wide
	// group spaces). Nothing else reads it: the per-probe and row-at-a-time
	// engines are the paper's, and the paper's were single-threaded.
	Workers int
	// Fused enables the fused, block-at-a-time pipeline (fused.go): each
	// fact block is scanned once against every predicate and dense-bitmap
	// join probe with per-block min/max short-circuiting, and aggregation
	// happens inside the same pass. It replaces the per-probe pipeline's
	// full-table bitmap per probe and map[int32]struct{} membership
	// lookups, for every plan — there is no plan shape it hands back.
	// Requires BlockIter and LateMat (ignored otherwise); keep it false for
	// the Figure 5/7 ablations, whose per-probe pipeline stays the faithful
	// reproduction path.
	Fused bool
	// NoKernels disables the encoding-native aggregation and selection
	// kernels (AggSelect/GatherSelect/FilterFunc): membership probes decode
	// blocks before testing, aggregation always gathers its inputs, and
	// the fused pipeline degrades its selection to an index list at the
	// first non-run-length probe. The zero value (kernels ON) is the
	// production path; set this for the operate-on-compressed ablation
	// (Section 5) and for the kernels-on/off differential harness.
	NoKernels bool
}

// KernelsActive reports whether the encoding-native kernels run under c:
// they require compressed storage to have anything to exploit and block
// iteration to be meaningful (the getNext ablation deliberately pays a call
// per value).
func (c Config) KernelsActive() bool { return !c.NoKernels && c.BlockIter }

// FullOpt is the baseline C-Store configuration "tICL".
var FullOpt = Config{BlockIter: true, InvisibleJoin: true, Compression: true, LateMat: true}

// FusedOpt is FullOpt with the fused block-at-a-time pipeline enabled — the
// performance configuration beyond the paper's ablation grid.
var FusedOpt = Config{BlockIter: true, InvisibleJoin: true, Compression: true, LateMat: true, Fused: true}

// FusedActive reports whether the fused pipeline executes under c: the
// fused pass is inherently block-iterated and late-materialized, so the
// flag is inert in configurations that ablate either.
func (c Config) FusedActive() bool { return c.Fused && c.BlockIter && c.LateMat }

// Figure7Configs returns the seven configurations of Figure 7 in the
// paper's order: tICL, TICL, tiCL, TiCL, ticL, TicL, Ticl.
func Figure7Configs() []Config {
	return []Config{
		{BlockIter: true, InvisibleJoin: true, Compression: true, LateMat: true},     // tICL
		{BlockIter: false, InvisibleJoin: true, Compression: true, LateMat: true},    // TICL
		{BlockIter: true, InvisibleJoin: false, Compression: true, LateMat: true},    // tiCL
		{BlockIter: false, InvisibleJoin: false, Compression: true, LateMat: true},   // TiCL
		{BlockIter: true, InvisibleJoin: false, Compression: false, LateMat: true},   // ticL
		{BlockIter: false, InvisibleJoin: false, Compression: false, LateMat: true},  // TicL
		{BlockIter: false, InvisibleJoin: false, Compression: false, LateMat: false}, // Ticl
	}
}

// Code renders the configuration in the paper's four-letter notation:
// t/T block vs tuple iteration, I/i invisible join, C/c compression,
// L/l late materialization.
func (c Config) Code() string {
	b := []byte{'T', 'i', 'c', 'l'}
	if c.BlockIter {
		b[0] = 't'
	}
	if c.InvisibleJoin {
		b[1] = 'I'
	}
	if c.Compression {
		b[2] = 'C'
	}
	if c.LateMat {
		b[3] = 'L'
	}
	if c.NoKernels {
		return string(b) + "-nk"
	}
	return string(b)
}
