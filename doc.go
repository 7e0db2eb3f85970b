// Package repro is a from-scratch Go reproduction of "Column-Stores vs.
// Row-Stores: How Different Are They Really?" (Abadi, Madden, Hachem,
// SIGMOD 2008).
//
// The repository contains a C-Store-style column engine (internal/colstore,
// internal/compress, internal/exec), a "System X"-style row engine
// (internal/rowstore, internal/btree, internal/rowexec), the Star Schema
// Benchmark substrate (internal/ssb), an analytic disk model
// (internal/iosim), and a facade (internal/core) that runs all thirteen
// SSBM queries under every physical design and executor configuration the
// paper evaluates. The benchmarks in bench_test.go and the cmd/ssb-bench
// harness regenerate the paper's Figures 5-8 plus the Section 6.1/6.2
// side experiments.
//
// Storage is two-tier. The in-memory tier (internal/colstore) holds
// resident encoded blocks; the persistent tier (internal/segstore) is an
// on-disk columnar format — every column split into 64K-row segments
// stored compressed under the encoding internal/compress chose, each with
// a persisted zone map (min/max, row count, encoding tag, CRC32) — plus a
// buffer manager with pinned-segment reference counting and clock
// eviction under a byte budget. Pool frames hold segments wire-native
// (RLE runs, packed words — never eagerly decoded value slices), so the
// budget is charged compressed payload bytes and the encoding-native
// kernels (compress.IntBlock AggSelect/GatherSelect/Filter) aggregate,
// gather and filter directly on that compressed representation — the
// paper's Section 5 "operate on compressed data" design, ablatable with
// exec.Config.NoKernels. Executors reach both tiers through one
// colstore.Column API: zone-map queries never perform I/O, so min/max
// pruning skips segments before they are ever read or decompressed, and
// larger-than-memory scale factors run under ssb-query/ssb-bench
// -mem-budget. ssb-gen -out writes either tier's format (.seg for the
// segment store, anything else for the v1 raw dump; loaders sniff the
// magic).
//
// Beyond the fixed benchmark, the logical plan is workload-open: ssb.Query
// expresses arbitrary ad-hoc star queries (any dimension filters, any
// measure predicates, any group-by set, multi-aggregate SUM/COUNT/MIN/MAX
// lists), the SQL frontend (internal/sql) parses the same space, and every
// engine executes it. ssb.RandQuery samples that plan space
// deterministically from a seed; the differential harness
// (internal/exec TestDifferential, cmd/ssb-fuzz) runs each sampled query
// through the brute-force reference, the per-probe and fused column
// pipelines, and the row-store designs, demanding byte-identical results —
// a standing cross-engine correctness oracle. PERFORMANCE.md documents the
// harness, the seed-replay workflow and the pinned golden results.
//
// The store takes writes through the paper's WS/RS split: a
// write-optimized store (internal/delta) absorbs insert batches in memory
// as columnar row batches with per-column running min/max (zone-map
// pruning works on unflushed data), while the read-optimized compressed
// store keeps serving scans, and a tuple mover (the compactor in
// internal/exec) freezes block-aligned delta prefixes into
// compress.Choose-encoded 64K-row segments appended atomically to the
// segment file — new payloads, a fresh CRC-checked footer and a new
// trailer land strictly after the old trailer before the in-memory
// directory swaps, so concurrent readers keep their snapshot and a crash
// mid-append costs only the interrupted batch: open recovers the previous
// trailer by backward scan. Every query
// resolves one consistent (sealed segments, delta watermark) pair at
// start and compiles its plan once: the engine scans the sealed store and
// the delta batches follow through the same block routine into the same
// aggregator, so a query started before an insert never observes it and
// one started after always does. exec.DB.Insert validates and
// remaps logical rows (foreign keys to dimension positions, strings to
// frozen dictionary codes); ssb-gen -append drives the same path from the
// CLI, and TestIngestDifferential pins every engine against a
// rebuilt-from-scratch reference at every epoch.
//
// Ingest is durable and transactional when a write-ahead log is attached
// (internal/wal; ssb-serve -wal, ssb-gen -append -wal). Every insert batch
// and delete appends a CRC-framed, LSN-stamped record and is acknowledged
// only after a group commit makes it fsync-durable — the first committer
// in a window issues one fsync covering everyone who appended meanwhile,
// so sustained multi-stream load pays far fewer fsyncs than batches
// (measured in PERFORMANCE.md). Opening a log replays it into the write
// store, tolerating a torn tail and inferring an un-checkpointed
// compaction from the segment file's actual length, so a kill -9 at any
// instant loses nothing acked and duplicates nothing; after each
// compaction the log is atomically rewritten to just a snapshot of the
// surviving delta. Deletes are C-Store deletion vectors: DB.Delete
// tombstones every row matching a conjunction of identity-valued fact
// predicates in epoch-versioned bitmaps (one masking the sealed store,
// one the write store) that every engine's scan consults, and the tuple
// mover purges write-store tombstones as it seals. TestCrashRecovery
// SIGKILLs a child ingester at random points and asserts the
// exactly-once contract against its fsynced intent/ack ledger.
//
// The engine also serves concurrent traffic: internal/server executes
// queries from any number of clients against one shared DB — one buffer
// pool, one scratch pool — with results guaranteed bit-identical to serial
// reference execution. Cancellation is first-class (exec.DB.RunCtx checks
// the context between 64K-row blocks, so an abandoned query releases every
// pinned segment within one block), a FIFO byte-budget semaphore sized
// from exec.DB.EstimateFootprint keeps concurrent queries from thrashing a
// small buffer pool into livelock, and an epoch-keyed (SQL + data
// version) LRU caches repeated results — an insert bumps the epoch, so
// stale entries stop being addressable. cmd/ssb-serve exposes it over
// HTTP JSON (/query by SSBM id, ad-hoc SQL, or generator seed; /insert
// for row batches; /stats for server, cache, write-store and pool
// counters); the repository benchmark (BENCHMARK.json, benchmark/)
// measures it out of process over real HTTP. The 16-client x 200-random-plan
// stress test in internal/server and the pin-leak/golden-equivalence tests
// in internal/exec pin the concurrency contract under -race.
//
// Execution is observable per query (internal/obs): a trace carried in the
// context records, for every plan stage, candidates in/out, blocks
// zone-map-pruned vs covered vs fetched, simulated and decoded bytes,
// kernel folds vs decode-path gathers, tombstones masked, and wall clock —
// with the guarantee (pinned by trace tests across every engine) that
// tracing changes neither results nor I/O accounting, that stage counters
// sum exactly to the query's iosim.Stats, and that block fetches reconcile
// with the buffer pool's hit+miss count. ssb-query -explain prints the
// stage table after one real execution (EXPLAIN ANALYZE), /query?trace=1
// returns it as JSON, ssb-serve -slow-ms logs a compact line per
// over-threshold query, and /metrics exposes server counters, pool gauges
// and latency histograms as Prometheus text from a dependency-free
// registry.
//
// The serving layer keeps a flight recorder on top of that: every query —
// engine run, cache hit, admission reject — is appended to a bounded
// in-memory ring (obs.Recorder) with its plan, engine, epoch, wait/exec
// wall time and stage rollup, served newest-first at /debug/queries with
// windowed per-engine×flight percentiles at /debug/summary; a second ring
// (obs.History) samples the metrics registry on a cadence and serves
// deltas and per-second rates at /metrics/history. ssb-serve -debug-addr
// starts an opt-in listener carrying net/http/pprof plus the same debug
// endpoints, cmd/ssb-top renders the whole read path as a terminal
// dashboard (live, or -once for CI), and cmd/ssb-bench -json writes a
// normalized measurement artifact. Cost regressions are caught exactly, not
// by stopwatch: internal/core pins every engine's whole iosim.Stats per
// query in testdata/iostats_sf001.json and compares for equality.
//
// The repository checks its own invariants statically: cmd/ssb-lint
// (internal/lint) type-checks the whole module with nothing beyond the
// standard library's go/parser and go/types — module-internal imports from
// source, the standard library through the source importer, so go.mod
// stays dependency-free — and runs six analyzers over it: pinleak (every
// buffer-pool pin released on all paths), ctxloop (block loops in
// internal/exec and internal/colstore observe cancellation), stats-
// discipline (iosim.Stats mutated only through its own API, no
// atomic/plain mixing), nologprint (internal packages print only through
// injected loggers), guardedby ("// guarded by <mu>" fields accessed only
// under that mutex), and closeerr (Close errors checked or explicitly
// discarded). The CI lint job fails on any diagnostic; a finding is
// suppressed only by "//lint:ignore <analyzer> <reason>", making every
// exception executable documentation. PERFORMANCE.md's "Invariants"
// section maps each analyzer to the PR whose guarantee it pins.
//
// # Layer map
//
// One heading per layer a request crosses, named as the repository
// benchmark (benchmark/, BENCHMARK.json) prefixes its per-layer metrics;
// PERFORMANCE.md carries the measurements and the paper-vs-measured
// figures.
//
// server (internal/server, cmd/ssb-serve): HTTP JSON front end — plan cache
// keyed by the raw request text (decode and parse once per distinct text),
// result cache keyed by (normalized SQL, epoch) holding each answer already
// rendered, byte-budget admission, flight recorder, /stats and /metrics.
//
// sql (internal/sql, internal/ssb): text to the logical star plan
// ssb.Query, and back (Query.SQL, the cache key); ssb.Reference is the
// brute-force oracle every engine is compared against.
//
// exec (internal/exec; internal/core is its facade over every physical
// design): the column executor. One query is
//
//	snapshot  (sealed DB, delta view, deletion vectors, epoch) under one lock
//	compile   ssb.Query + Config -> one Plan: join phase 1 into ordered fact probes, group extractors (attributes load on first use), aggregate layout
//	scan      the configured engine over sealed 64K-row morsels, then the shared block routine over delta morsels
//	aggregate one aggregator (dense cells + seen bitmap, or hash above the dense limit); workers' partials merge; one render
//
// with the Figure 5-8 ablation engines (per-probe, early-mat, Row-MV,
// denormalized; all single-threaded, as the paper's were) beside the fused
// serving path, and the tuple mover that seals delta prefixes into
// segments. The fence between the two is the absence of a knob: the server
// constructs exec.FusedOpt itself, every plan shape runs on the fused scan
// (hash-keyed group spaces included), and nothing a client or an Options
// field says can reach another engine.
//
// colstore (internal/colstore): columns as sequences of encoded blocks
// behind one API, resident or pool-backed; zone-map queries never do I/O.
//
// compress (internal/compress, internal/bitmap): the five block encodings
// and the kernels that filter, gather and aggregate on them undecoded — run-
// and word-level on RLE and bit-vector blocks, 64 values at a time (unpack,
// branch-free test, one result word) on plain, bit-packed and delta blocks.
//
// segstore (internal/segstore): the segment file format, its append and
// recovery protocol, and the pinning buffer pool.
//
// delta (internal/delta): the write-optimized store — immutable columnar
// insert batches with running min/max (small inserts coalesced on append),
// snapshotted per query.
//
// wal (internal/wal): CRC-framed records, group commit, replay and the
// post-compaction rewrite.
//
// obs (internal/obs): per-query traces, the metrics registry, the flight
// recorder and the metrics history.
//
// Beside the request path: rowstore/btree/rowexec (the "System X" row
// engine of Figures 5-6), iosim (the disk model), lint (cmd/ssb-lint).
package repro
