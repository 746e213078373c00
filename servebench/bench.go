package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"vecstudy/internal/client"
)

// setups is how many times a run sets the database up; setup_s is the
// median.
const setups = 5

// counters is a snapshot of the layers' own counters.
type counters struct {
	hits, misses, evictions, writebacks, lockWaits int64
	rejected, timeouts, errors                     int64
	probes, batched                                int64
	cpu                                            time.Duration
	// durableWrites and walBytes are read after a checkpoint (WAL
	// workloads only), so they include every page and log byte the
	// interval made dirty, not only those evicted within it.
	durableWrites, walBytes int64
}

// snapshot reads the counters. On a WAL database it then checkpoints,
// so the log's size on disk is its full length and the next interval
// starts with no dirty pages; the checkpoint's own write-backs fall
// outside the buffer rates but inside durableWrites.
func snapshot(e *env, c *client.Conn) (counters, error) {
	ps := e.d.Pool().Stats()
	ss := e.srv.Stats()
	s := counters{
		hits: ps.Hits, misses: ps.Misses, evictions: ps.Evictions, writebacks: ps.Writes, lockWaits: ps.LockWaits,
		rejected: ss.Rejected, timeouts: ss.Timeouts, errors: ss.Errors,
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, err
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	res, err := c.Execute("SHOW server_stats")
	if err != nil {
		return s, err
	}
	for _, row := range res.Rows {
		name, _ := row[0].(string)
		v, _ := row[1].(int64)
		switch name {
		case "batch_probes":
			s.probes = v
		case "batch_queries_batched":
			s.batched = v
		}
	}
	if e.dir != "" {
		if err := e.d.Checkpoint(); err != nil {
			return s, err
		}
		s.durableWrites = e.d.Pool().Stats().Writes
		fi, err := os.Stat(filepath.Join(e.dir, "wal.log"))
		if err != nil {
			return s, err
		}
		s.walBytes = fi.Size()
	}
	return s, nil
}

// runWorkload makes the seed's inputs, sets the database up setups
// times through SQL, runs the timed window on the last setup, checks
// every answer, and with cfg.trace replays the inputs layer by layer.
func runWorkload(cfg config, w workload) (*report, error) {
	in, err := makeInputs(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	ds := in.ds
	// The heap the benchmark itself holds through the final measurement
	// (dataset and query texts); live_heap_mb reports what lies above it.
	baseHeap := heapInuse()
	in.inserts = insertBatches(ds)
	rep := &report{
		workload: w.name,
		meta:     runMeta(cfg, w, ds.N(), ds.Dim),
		vals:     map[string]float64{},
	}

	var e *env
	var total, load, train, add []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		// Each setup starts from a collected heap, so the previous
		// database's garbage is not swept on this one's clock.
		runtime.GC()
		if e, err = openEnv(w, setupDir(cfg.out, w.name, i)); err != nil {
			return nil, err
		}
		t, err := e.setup(w, in, cfg.seed)
		if err != nil {
			e.close()
			return nil, err
		}
		total = append(total, t.total.Seconds())
		load = append(load, t.load.Seconds())
		train = append(train, t.train.Seconds())
		add = append(add, t.add.Seconds())
	}
	defer e.close()
	in.inserts = nil
	rep.vals["setup_s"] = median(total)
	rep.vals["setup.load_s"] = median(load)
	rep.vals["setup.train_s"] = median(train)
	rep.vals["setup.add_s"] = median(add)

	conns := make([]*client.Conn, w.readers)
	for i := range conns {
		if conns[i], err = e.dial(w); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}
	var writer *client.Conn
	var ops []writeOp
	if w.writeRate > 0 {
		if writer, err = e.dial(w); err != nil {
			return nil, err
		}
		defer writer.Close()
		ops = writeStream(ds, cfg.seed, int(w.writeRate*cfg.seconds)+1, int64(ds.N()))
	}

	// Warm-up: one untimed pass fills the caches and records each
	// query's answer; a read-only database must repeat it exactly.
	refs := make([][]int64, len(in.queries))
	for q, text := range in.queries {
		res, err := conns[0].Execute(text)
		if transportErr(err) {
			return nil, err
		}
		if err == nil {
			refs[q], err = resultIDs(res)
		}
		if err == nil && len(refs[q]) != k {
			err = fmt.Errorf("returned %d rows, want %d", len(refs[q]), k)
		}
		rep.attempted++
		if err != nil {
			rep.fail(1, "warm-up query %d: %v", q, err)
		}
	}
	if w.writeRate > 0 {
		refs = nil
	}

	tbl, err := e.d.Table(table)
	if err != nil {
		return nil, err
	}
	// The window starts from a collected heap, as each setup does.
	runtime.GC()
	before, err := snapshot(e, conns[0])
	if err != nil {
		return nil, err
	}
	win, err := runWindow(conns, writer, w, in, refs, ops, tbl, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	after, err := snapshot(e, conns[0])
	if err != nil {
		return nil, err
	}
	secs := win.elapsed.Seconds()
	rep.attempted += win.reads + len(win.writes)
	if win.readBad > 0 {
		rep.fail(win.readBad, "%d of %d kNN queries failed or were wrong; first: %s", win.readBad, win.reads, win.firstBad)
	}
	rep.vals["knn_qps"] = float64(len(win.readLat)) / secs
	rep.meta["knn_samples"] = len(win.readLat)
	rep.meta["knn_beyond_p99"] = beyond(len(win.readLat), 0.99)
	rep.vals["knn_p50_ms"] = quantile(win.readLat, 0.50)
	rep.vals["knn_p99_ms"] = quantile(win.readLat, 0.99)
	if len(win.readLat) < 1 || beyond(len(win.readLat), 0.99) < 10 {
		return nil, fmt.Errorf("%d kNN samples leave fewer than 10 beyond the p99; lengthen --seconds", len(win.readLat))
	}

	live := make(map[int64][]float32, ds.N())
	for i := 0; i < ds.N(); i++ {
		live[int64(i)] = ds.Base.Row(i)
	}
	writes := win.writes
	deletedAt := applyWrites(live, writes)
	if bad, first := resurrections(deletedAt, win.answers); bad > 0 {
		rep.fail(bad, "%d answers returned an id deleted before they were sent; first: %s", bad, first)
	}

	// Recall: one untimed pass over every query, against the exact
	// top-10 of the rows live now.
	got := make([][]int64, len(in.queries))
	qvecs := make([][]float32, len(in.queries))
	for q, text := range in.queries {
		qvecs[q] = ds.Queries.Row(q)
		res, err := conns[0].Execute(text)
		if transportErr(err) {
			return nil, err
		}
		if err == nil {
			got[q], err = resultIDs(res)
		}
		rep.attempted++
		if err != nil {
			rep.fail(1, "recall query %d: %v", q, err)
		}
	}
	rep.vals["recall_at_10"] = recallAt10(qvecs, got, live)

	idx := e.d.IndexOn(table, "vec")
	blocks, err := e.d.Pool().NumBlocks(tbl.Rel())
	if err != nil {
		return nil, err
	}
	idxBytes, err := idx.SizeBytes()
	if err != nil {
		return nil, err
	}
	if nlive := tbl.NTuples(); nlive > 0 {
		rep.vals["bytes_per_live_row"] = float64(int64(blocks)*int64(e.d.Pool().PageSize())+idxBytes) / float64(nlive)
	}
	rep.vals["heap.dead_frac"] = median(win.deadFrac)

	// Write latency: the churn writer's; 0 on the read-only workloads.
	var inserted, deleted int
	for _, wr := range writes {
		if wr.err != nil {
			rep.fail(1, "%s: %v", wr.op.sql[:min(len(wr.op.sql), 40)], wr.err)
			continue
		}
		switch wr.op.kind {
		case opInsert:
			inserted += wr.rows
		case opDelete:
			deleted += wr.rows
		}
	}
	rep.meta["write_samples"] = len(win.writeLat)
	rep.meta["writer_lag_max_ms"] = float64(win.lagMax) / 1e6
	rep.vals["write_p50_ms"] = quantile(win.writeLat, 0.50)
	rep.vals["write_p99_ms"] = quantile(win.writeLat, 0.99)

	// The live count the acknowledgments imply must match count(*).
	rep.attempted++
	if err := checkCount(conns[0], int64(ds.N()+inserted-deleted)); err != nil {
		rep.fail(1, "%v", err)
	}

	// Counter deltas over the timed window.
	d := func(a, b int64) float64 { return float64(b - a) }
	rep.vals["server.rejected"] = d(before.rejected, after.rejected)
	rep.vals["server.timeouts"] = d(before.timeouts, after.timeouts)
	rep.vals["server.errors"] = d(before.errors, after.errors)
	if probes := d(before.probes, after.probes); probes > 0 {
		rep.vals["batch.queries_per_probe"] = d(before.batched, after.batched) / probes
	}
	rep.vals["batch.cpu_util"] = float64(after.cpu-before.cpu) / (float64(win.elapsed) * float64(runtime.GOMAXPROCS(0)))
	if pins := d(before.hits, after.hits) + d(before.misses, after.misses); pins > 0 {
		rep.vals["buffer.hit_rate"] = d(before.hits, after.hits) / pins
	}
	rep.vals["buffer.evictions_per_s"] = d(before.evictions, after.evictions) / secs
	rep.vals["buffer.writebacks_per_s"] = d(before.writebacks, after.writebacks) / secs
	rep.vals["buffer.lock_waits_per_s"] = d(before.lockWaits, after.lockWaits) / secs
	rowsWritten, userBytes := 0, 0
	tupleBytes, err := tbl.Schema().Encode([]any{int32(0), ds.Base.Row(0)})
	if err != nil {
		return nil, err
	}
	for _, wr := range win.writes {
		if wr.err == nil && wr.op.kind != opVacuum {
			rowsWritten += wr.rows
			if wr.op.kind != opDelete {
				userBytes += wr.rows * len(tupleBytes)
			}
		}
	}
	walDelta := d(before.walBytes, after.walBytes)
	if rowsWritten > 0 {
		rep.vals["wal.bytes_per_row"] = walDelta / float64(rowsWritten)
	}
	if userBytes > 0 {
		rep.vals["storage.write_amp"] = (d(before.durableWrites, after.durableWrites)*float64(e.d.Pool().PageSize()) + walDelta) / float64(userBytes)
	}

	// The engine's heap: drop the checks' own state, collect, and
	// subtract the benchmark's baseline.
	live, deletedAt, refs, got, qvecs, ops, writes = nil, nil, nil, nil, nil, nil, nil
	win = nil
	rep.vals["live_heap_mb"] = float64(heapInuse()-baseHeap) / (1 << 20)

	if cfg.trace {
		tr := newTracer()
		untraced, err := replay(e, w, in, tr)
		if err != nil {
			return nil, err
		}
		layerFromTrace(tr, untraced, rep.vals)
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.meta["trace_file"] = path
		rep.meta["trace_spans"] = len(tr.spans)
	}
	return rep, nil
}

func checkCount(c *client.Conn, want int64) error {
	res, err := c.Execute("SELECT count(*) FROM " + table)
	if err != nil {
		return err
	}
	got, err := resultIDs(res)
	if err != nil {
		return err
	}
	if len(got) != 1 {
		return fmt.Errorf("count(*) returned %d rows", len(got))
	}
	return countMismatch(got[0], want)
}

// heapInuse collects garbage and returns the bytes of in-use heap spans.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}
