package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/wire"
)

// workload is one traffic mix. Every setting not listed in sets keeps
// its engine default (kernel, heap = n, 16 buffer partitions,
// threads = 1).
type workload struct {
	name       string
	am         string
	sets       []string // SETs every connection of the workload runs
	readers    int      // closed-loop kNN connections
	writeRate  float64  // open-loop write statements per second; 0 = read-only
	wal        bool     // file-backed database with write-ahead logging
	poolFrames int      // buffer pool frames; 0 = engine default, which holds everything
}

// workloads are listed in BENCHMARK.json order; README.md gives the
// reason for each.
var workloads = []workload{
	{
		name:    "knn-ivfflat-solo",
		am:      "ivfflat",
		sets:    []string{"SET nprobe = 20"},
		readers: 1,
	},
	{
		name:    "knn-ivfsq8-batched",
		am:      "ivfsq8",
		sets:    []string{"SET sq8_rerank = 2", "SET batch_window = 500", "SET batch_max = 2"},
		readers: 2,
	},
	{
		name:       "churn-ivfflat-wal",
		am:         "ivfflat",
		sets:       []string{"SET nprobe = 20"},
		readers:    1,
		writeRate:  20,
		wal:        true,
		poolFrames: 1500,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// writeResult is the acknowledged outcome of one write statement.
type writeResult struct {
	op    writeOp
	rows  int   // row count of the acknowledgment
	ackNs int64 // ack time on the window clock
	err   error
}

// windowResult is what the timed window observed.
type windowResult struct {
	elapsed  time.Duration
	readLat  []float64 // ms, successful and correct kNN answers
	reads    int       // kNN statements attempted
	readBad  int       // failed or wrong kNN answers
	firstBad string
	answers  []answer // churn: every answer, for the resurrection check
	writes   []writeResult
	writeLat []float64 // ms from each statement's due time to its ack
	lagMax   time.Duration
	// deadFrac is the table's dead-tuple fraction just before each
	// VACUUM the writer sends: what vacuum finds to reclaim.
	deadFrac []float64
}

// runWindow drives the workload for dur: w.readers closed-loop kNN
// connections and, for a write workload, one open-loop writer that
// sends ops[i] at start + i/writeRate. refs, when non-nil, holds the
// expected ids of each query (read-only workloads: the database does
// not change, so every answer must repeat the warm-up answer).
func runWindow(conns []*client.Conn, writer *client.Conn, w workload, in *inputs, refs [][]int64, ops []writeOp, tbl *heap.Table, dur time.Duration) (*windowResult, error) {
	res := &windowResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	base := time.Now()
	deadline := base.Add(dur)
	var fatal error
	setFatal := func(err error) {
		mu.Lock()
		if fatal == nil {
			fatal = err
		}
		mu.Unlock()
	}
	for r, c := range conns {
		wg.Add(1)
		go func(r int, c *client.Conn) {
			defer wg.Done()
			var lat []float64
			var answers []answer
			reads, bad := 0, 0
			firstBad := ""
			nq := len(in.queries)
			for i := r * nq / len(conns); time.Now().Before(deadline); i++ {
				q := i % nq
				t0 := time.Now()
				out, err := c.Execute(in.queries[q])
				d := time.Since(t0)
				reads++
				if transportErr(err) {
					bad++
					setFatal(fmt.Errorf("reader %d: %w", r, err))
					break
				}
				var ids []int64
				if err == nil {
					ids, err = resultIDs(out)
				}
				if err == nil && len(ids) != k {
					err = fmt.Errorf("query %d returned %d rows, want %d", q, len(ids), k)
				}
				if err == nil && refs != nil && !sameIDs(ids, refs[q]) {
					err = fmt.Errorf("query %d answered %v, warm-up answered %v", q, ids, refs[q])
				}
				if err != nil {
					bad++
					if firstBad == "" {
						firstBad = err.Error()
					}
					continue
				}
				lat = append(lat, float64(d)/1e6)
				if refs == nil {
					answers = append(answers, answer{query: q, sentNs: t0.Sub(base).Nanoseconds(), ids: ids})
				}
			}
			mu.Lock()
			res.readLat = append(res.readLat, lat...)
			res.answers = append(res.answers, answers...)
			res.reads += reads
			res.readBad += bad
			if res.firstBad == "" {
				res.firstBad = firstBad
			}
			mu.Unlock()
		}(r, c)
	}
	if writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range ops {
				due := base.Add(time.Duration(float64(i) / w.writeRate * float64(time.Second)))
				if !due.Before(deadline) {
					break
				}
				time.Sleep(time.Until(due))
				if lag := time.Since(due); lag > res.lagMax {
					res.lagMax = lag
				}
				if op.kind == opVacuum {
					res.deadFrac = append(res.deadFrac, tbl.DeadFraction())
				}
				wr := writeResult{op: op}
				out, err := writer.Execute(op.sql)
				now := time.Now()
				wr.ackNs = now.Sub(base).Nanoseconds()
				if transportErr(err) {
					wr.err = err
					res.writes = append(res.writes, wr)
					setFatal(fmt.Errorf("writer: %w", err))
					return
				}
				if err == nil {
					wr.rows, err = expectAck(op, out)
				}
				wr.err = err
				res.writes = append(res.writes, wr)
				if err == nil {
					res.writeLat = append(res.writeLat, float64(now.Sub(due))/1e6)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(base)
	return res, fatal
}

// transportErr reports a failure of the connection itself, after which
// it cannot carry further statements; a *wire.Error is a statement the
// server answered with an error.
func transportErr(err error) bool {
	var werr *wire.Error
	return err != nil && !errors.As(err, &werr)
}

// expectAck checks a write's acknowledgment: the generator only targets
// live ids, so every INSERT, DELETE and UPDATE must touch exactly one
// row.
func expectAck(op writeOp, out *wire.Result) (int, error) {
	if op.kind == opVacuum {
		if out.Msg != "VACUUM" {
			return 0, fmt.Errorf("VACUUM acknowledged %q", out.Msg)
		}
		return 0, nil
	}
	n, err := ackCount(out.Msg)
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return n, fmt.Errorf("%s of id %d touched %d rows, want 1", op.kind, op.id, n)
	}
	return n, nil
}

// applyWrites replays acknowledged writes onto the live-row model and
// returns the ack time of every acknowledged DELETE.
func applyWrites(live map[int64][]float32, writes []writeResult) map[int64]int64 {
	deletedAt := make(map[int64]int64)
	for _, wr := range writes {
		if wr.err != nil {
			continue
		}
		switch wr.op.kind {
		case opInsert, opUpdate:
			live[wr.op.id] = wr.op.vec
		case opDelete:
			delete(live, wr.op.id)
			deletedAt[wr.op.id] = wr.ackNs
		}
	}
	return deletedAt
}
