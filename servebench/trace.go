package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"vecstudy/internal/batch"
	"vecstudy/internal/maintenance"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/vec"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the id of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work counted at the same boundary: buffer pins, distance
	// candidates, tuples scanned or entries reclaimed.
	N int64 `json:"n,omitempty"`
}

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(t.base).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int, n int64) {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// call records fn as a child span of parent; fn returns its work count.
func (t *tracer) call(name string, parent, req int, fn func() (int64, error)) error {
	id := t.begin(name, parent, req)
	n, err := fn()
	t.end(id, n)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// durs returns the durations of every span named name, in ns.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// perReq sums the durations of the spans named name within each
// request; mean divides each sum by its request's span count.
func (t *tracer) perReq(name string, mean bool) map[int]float64 {
	out := make(map[int]float64)
	n := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += float64(s.End - s.Start)
			n[s.Req]++
		}
	}
	if mean {
		for req := range out {
			out[req] /= n[req]
		}
	}
	return out
}

// counts returns the N of every span named name.
func (t *tracer) counts(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.N))
		}
	}
	return out
}

// perCount is total time over total work for the spans named name.
func (t *tracer) perCount(name string) float64 {
	var d, n float64
	for _, s := range t.spans {
		if s.Name == name {
			d += float64(s.End - s.Start)
			n += float64(s.N)
		}
	}
	if n == 0 {
		return 0
	}
	return d / n
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The batch-layer probe submits query pairs with the knob values the
// batched workload SETs, on every workload.
const (
	probeWindow = 500 * time.Microsecond
	probeMax    = 2
	// kernelQueries is how many query vectors score every base row in
	// the kernel probes.
	kernelQueries = 20
	// writeRounds of replayed writes, each writeRoundRows rows per path.
	writeRounds    = 3
	writeRoundRows = 10
	// replayID is the first id the replayed writes insert, far above
	// any id the workload hands out.
	replayID = 1_000_000_000
)

// replay sends the workload's inputs through each layer's public
// functions one call at a time, recording a span around every call.
// It runs after the timed window and its checks, on the same database,
// with the server idle.
// It returns the wire latencies (ns) of the untraced copy of each
// request, the base of trace.overhead_frac.
func replay(e *env, w workload, in *inputs, tr *tracer) ([]float64, error) {
	c, err := e.dial(w)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	plain := sql.NewSession(e.d)
	pairB := sql.NewSession(e.d)
	coalesced := batch.NewSession(sql.NewSession(e.d), batch.NewCoalescer())
	params := map[string]string{}
	for _, s := range w.sets {
		for _, sess := range []interface {
			Execute(string) (*sql.Result, error)
		}{plain, pairB, coalesced} {
			if _, err := sess.Execute(s); err != nil {
				return nil, err
			}
		}
		name, val, _ := strings.Cut(strings.TrimPrefix(s, "SET "), " = ")
		params[name] = val
	}
	tbl, err := e.d.Table(table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	vcol := schema.ColIndex("vec")
	idx := e.d.IndexOn(table, "vec")
	pool := e.d.Pool()

	// Per request: the wire, the in-process batch session, then each
	// layer under it on its own.
	var untraced []float64
	for r, text := range in.queries {
		root := tr.begin("request", 0, r)
		err := tr.call("client.ping", root, r, func() (int64, error) { return 0, c.Ping() })
		wireTimed := func() error {
			return tr.call("client.execute", root, r, func() (int64, error) { _, err := c.Execute(text); return 0, err })
		}
		wirePlain := func() error {
			t0 := time.Now()
			_, err := c.Execute(text)
			untraced = append(untraced, float64(time.Since(t0)))
			return err
		}
		// Alternate which copy goes first so neither always meets a
		// warmer cache.
		first, second := wireTimed, wirePlain
		if r%2 == 1 {
			first, second = wirePlain, wireTimed
		}
		if err == nil {
			err = first()
		}
		if err == nil {
			err = second()
		}
		if err == nil {
			err = tr.call("batch.session_execute", root, r, func() (int64, error) { _, err := coalesced.Execute(text); return 0, err })
		}
		// Parse runs before and after ExecuteOrPlan, which parses too, so
		// neither copy always meets a warmer cache.
		parse := func() error {
			return tr.call("sql.parse", root, r, func() (int64, error) { _, err := sql.Parse(text); return 0, err })
		}
		if err == nil {
			err = parse()
		}
		var q *sql.VectorQuery
		if err == nil {
			err = tr.call("sql.execute_or_plan", root, r, func() (int64, error) {
				var err error
				_, q, err = plain.ExecuteOrPlan(text)
				if err == nil && q == nil {
					err = fmt.Errorf("query %d did not plan as a vector search", r)
				}
				return 0, err
			})
		}
		if err == nil {
			err = parse()
		}
		if err == nil {
			err = tr.call("sql.run", root, r, func() (int64, error) { _, err := q.Run(); return 0, err })
		}
		var hits []am.Result
		if err == nil {
			err = tr.call("am.search", root, r, func() (int64, error) {
				before := pool.Stats()
				var err error
				hits, err = idx.Search(in.ds.Queries.Row(r), k, params)
				after := pool.Stats()
				return after.Hits + after.Misses - before.Hits - before.Misses, err
			})
		}
		for _, h := range hits {
			if err != nil {
				break
			}
			err = tr.call("heap.fetch", root, r, func() (int64, error) {
				if w.am == "ivfsq8" {
					_, _, err := tbl.GetVectorVisible(h.TID, vcol)
					return 1, err
				}
				_, err := tbl.GetVisible(h.TID, func(tup []byte) error { _, err := schema.Decode(tup); return err })
				return 1, err
			})
		}
		tr.end(root, 0)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", r, err)
		}
	}
	if err := replayPairs(in, params, plain, pairB, idx, tr); err != nil {
		return nil, err
	}
	replayKernels(in, tr)
	return untraced, replayWrites(e, in, tbl, idx, plain, tr)
}

// replayPairs runs consecutive query pairs as one multi-query probe:
// through sql.MultiRun, through the access method's MultiSearch, and
// through a coalescer that two goroutines submit to at once.
func replayPairs(in *inputs, params map[string]string, sa, sb *sql.Session, idx am.Index, tr *tracer) error {
	bidx, ok := idx.(am.BatchIndex)
	if !ok {
		return fmt.Errorf("index %s has no multi-query probe", idx.AM())
	}
	co := batch.NewCoalescer()
	for p := 0; p+1 < len(in.queries); p += 2 {
		req := len(in.queries) + p/2
		root := tr.begin("pair", 0, req)
		_, qa, err := sa.ExecuteOrPlan(in.queries[p])
		if err != nil {
			return err
		}
		_, qb, err := sb.ExecuteOrPlan(in.queries[p+1])
		if err != nil {
			return err
		}
		multiRun := func() error {
			return tr.call("batch.multirun", root, req, func() (int64, error) {
				_, err := sql.MultiRun([]*sql.VectorQuery{qa, qb})
				return 2, err
			})
		}
		if err := multiRun(); err != nil {
			return err
		}
		if err := tr.call("am.multisearch", root, req, func() (int64, error) {
			_, err := bidx.MultiSearch([][]float32{in.ds.Queries.Row(p), in.ds.Queries.Row(p + 1)}, []int{k, k}, params, nil)
			return 2, err
		}); err != nil {
			return err
		}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i, q := range []*sql.VectorQuery{qa, qb} {
			wg.Add(1)
			go func(i int, q *sql.VectorQuery) {
				defer wg.Done()
				errs[i] = tr.call("batch.submit", root, req, func() (int64, error) {
					_, err := co.Submit(q, probeWindow, probeMax)
					return 1, err
				})
			}(i, q)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		// A second MultiRun after the coalesced one, so the pair's mean
		// MultiRun meets the cache as warm as the Submits did on average.
		err = multiRun()
		tr.end(root, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayKernels scores every base row against a few queries with the
// default kernel, in fp32 and through an SQ8 codec trained on the rows.
func replayKernels(in *inputs, tr *tracer) {
	ds := in.ds
	kern := vec.Default()
	rows := make([][]float32, ds.N())
	trainer := vec.NewSQ8Trainer(ds.Dim)
	for i := range rows {
		rows[i] = ds.Base.Row(i)
		trainer.Observe(rows[i])
	}
	sq := trainer.Finish()
	codes := make([][]byte, ds.N())
	for i, r := range rows {
		codes[i] = make([]byte, ds.Dim)
		sq.Encode(r, codes[i])
	}
	out := make([]float32, ds.N())
	wq := make([]float32, ds.Dim)
	for r := 0; r < min(kernelQueries, ds.NQ()); r++ {
		req := 2*ds.NQ() + r
		q := ds.Queries.Row(r)
		tr.call("vec.l2sqr_batch", 0, req, func() (int64, error) {
			kern.L2SqrBatch(q, rows, out)
			return int64(len(rows)), nil
		})
		sq.DecomposeQuery(q, wq)
		tr.call("vec.dotsq8_batch", 0, req, func() (int64, error) {
			kern.DotSQ8Batch(wq, codes, out)
			return int64(len(codes)), nil
		})
	}
}

// replayWrites runs rounds of writes on fresh ids: through the SQL
// session (INSERT, UPDATE, DELETE), then through the heap and index
// directly in the order db.Insert and db.Delete call them, then one
// full heap scan with decode (the pass point DELETE and UPDATE pay) and
// one VACUUM. The rows reuse base vectors, so they derive from the
// seed like every other input.
func replayWrites(e *env, in *inputs, tbl *heap.Table, idx am.Index, s *sql.Session, tr *tracer) error {
	mi, ok := idx.(am.MutableIndex)
	if !ok {
		return fmt.Errorf("index %s does not support delete", idx.AM())
	}
	schema := tbl.Schema()
	gate := e.d.StmtGate()
	exec := func(name string, req int, text string) error {
		return tr.call(name, 0, req, func() (int64, error) { _, err := s.Execute(text); return 1, err })
	}
	for round := 0; round < writeRounds; round++ {
		req := 1_000_000 + round
		id := replayID + round*4*writeRoundRows
		vecOf := func(i int) []float32 { return in.ds.Base.Row((id + i) % in.ds.N()) }
		for i := 0; i < writeRoundRows; i++ {
			if err := exec("sql.insert", req, fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s')", table, id+i, vecLit(vecOf(i)))); err != nil {
				return err
			}
		}
		for i := 0; i < writeRoundRows/2; i++ {
			if err := exec("sql.update", req, fmt.Sprintf("UPDATE %s SET vec = '%s' WHERE id = %d", table, vecLit(vecOf(i+1)), id+i)); err != nil {
				return err
			}
			if err := exec("sql.delete", req, fmt.Sprintf("DELETE FROM %s WHERE id = %d", table, id+writeRoundRows/2+i)); err != nil {
				return err
			}
		}
		tids := make([]heap.TID, writeRoundRows)
		vecs := make([][]float32, writeRoundRows)
		gate.RLock()
		for i := range tids {
			vecs[i] = vecOf(i)
			values := []any{int32(id + 2*writeRoundRows + i), vecs[i]}
			err := tr.call("heap.insert", 0, req, func() (int64, error) {
				var err error
				tids[i], err = tbl.Insert(values)
				return 1, err
			})
			if err == nil {
				err = tr.call("am.insert", 0, req, func() (int64, error) { return 1, idx.Insert(vecs[i], tids[i]) })
			}
			if err != nil {
				gate.RUnlock()
				return err
			}
		}
		gate.RUnlock()
		gate.Lock()
		for i, tid := range tids {
			err := tr.call("heap.delete", 0, req, func() (int64, error) { _, err := tbl.Delete(tid); return 1, err })
			if err == nil {
				err = tr.call("am.delete", 0, req, func() (int64, error) { _, err := mi.Delete(vecs[i], tid); return 1, err })
			}
			if err != nil {
				gate.Unlock()
				return err
			}
		}
		gate.Unlock()
		gate.RLock()
		err := tr.call("heap.scan", 0, req, func() (int64, error) {
			var n int64
			err := tbl.Scan(func(_ heap.TID, tup []byte) (bool, error) {
				n++
				_, err := schema.Decode(tup)
				return err == nil, err
			})
			return n, err
		})
		gate.RUnlock()
		if err != nil {
			return err
		}
		gate.Lock()
		err = tr.call("maint.vacuum", 0, req, func() (int64, error) {
			rep, err := maintenance.VacuumTable(e.d, table)
			return rep.Heap.DeadReclaimed + rep.IndexDead, err
		})
		gate.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
