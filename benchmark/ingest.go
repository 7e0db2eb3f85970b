package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ssb"
)

// insertBody renders a batch as the explicit-row /insert body: what a
// client that owns its rows would send (the seeded server-side form skips
// the JSON row decode the workload wants to include).
func insertBody(b *ssb.Lineorders) ([]byte, error) {
	type wireRow struct {
		OrderKey      int32  `json:"orderkey"`
		LineNumber    int32  `json:"linenumber"`
		CustKey       int32  `json:"custkey"`
		PartKey       int32  `json:"partkey"`
		SuppKey       int32  `json:"suppkey"`
		OrderDate     int32  `json:"orderdate"`
		OrdPriority   string `json:"ordpriority"`
		ShipPriority  int32  `json:"shippriority"`
		Quantity      int32  `json:"quantity"`
		ExtendedPrice int32  `json:"extendedprice"`
		OrdTotalPrice int32  `json:"ordtotalprice"`
		Discount      int32  `json:"discount"`
		Revenue       int32  `json:"revenue"`
		SupplyCost    int32  `json:"supplycost"`
		Tax           int32  `json:"tax"`
		CommitDate    int32  `json:"commitdate"`
		ShipMode      string `json:"shipmode"`
	}
	rows := make([]wireRow, b.Len())
	for i := range rows {
		rows[i] = wireRow{
			b.OrderKey[i], b.LineNumber[i], b.CustKey[i], b.PartKey[i], b.SuppKey[i],
			b.OrderDate[i], b.OrdPriority[i], b.ShipPriority[i], b.Quantity[i],
			b.ExtendedPrice[i], b.OrdTotalPrice[i], b.Discount[i], b.Revenue[i],
			b.SupplyCost[i], b.Tax[i], b.CommitDate[i], b.ShipMode[i],
		}
	}
	return json.Marshal(map[string]any{"rows": rows})
}

// inserter sends insert batches and keeps the books the checks need.
type inserter struct {
	e    *env
	base string
	// next is the index of the next batch to generate; acked sums every
	// acknowledged batch on top of the base table.
	next        int
	acked       totals
	pendingPeak int64
}

// batch generates and renders the next batch.
func (in *inserter) batch() (*ssb.Lineorders, []byte, error) {
	b, err := insertBatch(in.e.cfg.seed, in.next, in.e.ans.Shape)
	if err != nil {
		return nil, nil, err
	}
	in.next++
	body, err := insertBody(b)
	return b, body, err
}

// send posts one batch until it is acknowledged. A 503 (write store full)
// is a refusal: it is counted, paced off and retried, and the time it cost
// stays in the caller's latency. It returns false when the batch failed.
func (in *inserter) send(b *ssb.Lineorders, body []byte) bool {
	for {
		status, payload, _, _, err := in.e.client.roundTrip(in.base, "/insert", body)
		switch {
		case err != nil:
			in.e.ops.fail("insert: %v", err)
			return false
		case status == http.StatusServiceUnavailable:
			in.e.ops.refusedOnce()
			time.Sleep(50 * time.Millisecond)
			continue
		case status != http.StatusOK:
			in.e.ops.fail("insert: status %d: %s", status, payload)
			return false
		}
		var rep insertReply
		if err := json.Unmarshal(payload, &rep); err != nil || rep.Inserted != b.Len() {
			in.e.ops.fail("insert: acknowledged %d of %d rows (%v)", rep.Inserted, b.Len(), err)
			return false
		}
		in.e.ops.ok()
		in.acked.add(b)
		in.pendingPeak = max(in.pendingPeak, rep.PendingRows)
		return true
	}
}

// checkTotals compares the server's whole-table aggregates against base +
// acknowledged batches: a lost or duplicated batch is a failed op.
func (in *inserter) checkTotals(when string) {
	got, err := in.e.client.queryTotals(in.base)
	if err != nil {
		in.e.ops.fail("totals %s: %v", when, err)
		return
	}
	if got != in.acked {
		in.e.ops.fail("totals %s: server has %+v, base + acked batches is %+v", when, got, in.acked)
		return
	}
	in.e.ops.ok()
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // the copy error is the one to report
		return err
	}
	return out.Close()
}

// runIngestMixed is the write workload. Phase A: an open-loop writer posts
// batches on a fixed schedule, timed from each batch's due time, while one
// closed-loop reader runs the 13-query mix — so the query metrics are taken
// under a fixed write load. Phase B: a write-only closed-loop burst for
// capacity. Then SIGKILL, restart on the same file and log, totals check,
// graceful drain, file sizes.
func runIngestMixed(e *env, m *metricSet) error {
	t := scanTraffic()
	seg, wal := filepath.Join(e.work, "ingest.seg"), filepath.Join(e.work, "ingest.wal")
	args := []string{"-data", seg, "-workers", "2", "-cache", "-1", "-ingest", "-wal", wal, "-wal-window-ms", "1"}
	// Before any insert the ingest-enabled server must give the base answers.
	srv, err := e.setUp(m, t, newVerifier(e.ans.Results), func() ([]string, error) {
		if err := os.Remove(wal); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		return args, copyFile(seg, e.segPath)
	})
	if err != nil {
		return err
	}
	in := &inserter{e: e, base: srv.base, acked: e.ans.Totals}

	// Phase A. Bodies are rendered up front so the generator only sends.
	nA := phaseABatches(e.cfg.seconds)
	batches := make([]*ssb.Lineorders, nA)
	bodies := make([][]byte, nA)
	for i := range bodies {
		if batches[i], bodies[i], err = in.batch(); err != nil {
			return err
		}
	}
	var insertMs, lateMs []float64
	writer := func() {
		start := time.Now()
		for i := range bodies {
			due := start.Add(time.Duration(float64(i) / insertRate * float64(time.Second)))
			time.Sleep(time.Until(due))
			lateMs = append(lateMs, float64(time.Since(due))/1e6)
			if in.send(batches[i], bodies[i]) {
				insertMs = append(insertMs, float64(time.Since(due))/1e6)
			}
		}
	}
	// Answers move with every batch, so phase-A responses are checked for
	// status and shape only; the pass below checks them exactly.
	w, err := e.measure(srv, t, nil, phaseAShare*e.cfg.seconds, writer)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	m.set("peak_rss_mb", rss, 1)
	after := newVerifier(e.ans.AfterA)
	for i := range t.reqs {
		e.doQuery(srv.base, &t.reqs[i], i, false, after, nil)
	}

	// Phase B.
	var burstRows, burstNs int64
	for deadline := time.Now().Add(time.Duration((1 - phaseAShare) * e.cfg.seconds * float64(time.Second))); time.Now().Before(deadline); {
		b, body, err := in.batch()
		if err != nil {
			return err
		}
		start := time.Now()
		if in.send(b, body) {
			burstRows += int64(b.Len())
			burstNs += int64(time.Since(start))
		}
	}
	in.checkTotals("after the write burst")
	stB, err := e.client.stats(srv.base)
	if err != nil {
		return err
	}

	// Crash and recover: nothing acknowledged may be lost or duplicated.
	srv.kill()
	restart := time.Now()
	if srv, err = startServer(e, "recover.log", args...); err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recoverMs := float64(time.Since(restart)) / 1e6
	in.base = srv.base
	in.checkTotals("after SIGKILL and recovery")
	if err := srv.stop(); err != nil {
		return fmt.Errorf("graceful drain: %w", err)
	}
	var size [3]int64
	for i, p := range []string{seg, wal, e.segPath} {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		size[i] = fi.Size()
	}
	m.set("disk_bytes_per_row", float64(size[0]+size[1])/float64(in.acked.Count), 1)

	queryMetrics(m, t, w)
	layerMetrics(m, w)
	s0 := w.st0
	inserted := float64(in.acked.Count - e.ans.Totals.Count)
	inserts := float64(stB.Server.Inserts - s0.Server.Inserts)
	m.set("server.insert_rows_per_s", ratio(float64(burstRows), float64(burstNs)/1e9), int(burstRows/insertBatchRows))
	m.set("server.insert_p50_ms", percentile(insertMs, 50), len(insertMs))
	m.set("server.insert_p95_ms", percentile(insertMs, 95), len(insertMs))
	m.set("server.insert_late_p95_ms", percentile(lateMs, 95), len(lateMs))
	m.set("delta.compactions", float64(stB.Server.Delta.Compactions-s0.Server.Delta.Compactions), 1)
	m.set("delta.pending_rows_peak", float64(in.pendingPeak), int(inserts))
	m.set("wal.fsyncs_per_insert", ratio(float64(stB.Server.WAL.Syncs-s0.Server.WAL.Syncs), inserts), int(inserts))
	// After each compaction the log is rewritten to the surviving delta, so
	// its size over the pending rows is the log's cost per row.
	m.set("wal.bytes_per_row", ratio(float64(stB.Server.WAL.Bytes), float64(stB.Server.Delta.PendingRows)), 1)
	m.set("wal.rewrites", float64(stB.Server.WAL.Rewrites-s0.Server.WAL.Rewrites), 1)
	m.set("wal.recover_ms", recoverMs, 1)
	m.set("segstore.append_bytes_per_row",
		ratio(float64(stB.Pool.AppendedBytes-s0.Pool.AppendedBytes), float64(stB.Server.Delta.SealedRows-s0.Server.Delta.SealedRows)), 1)
	m.set("segstore.file_growth_bytes_per_row", ratio(float64(size[0]-size[2]), inserted), 1)
	return nil
}
