package ivf

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"vecstudy/internal/minheap"
	"vecstudy/internal/pase"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
	"vecstudy/internal/prof"
	"vecstudy/internal/vec"
)

// Run is the live entries of one data page, handed to a Scorer while the
// page stays pinned. The page field escorts the views: IDs index
// Payloads, whose byte slices alias the pinned frame, so every view is
// valid only until the walk moves to the next page (pagealias permits
// view stores into a struct only when the struct carries the pin).
type Run struct {
	page     *buffer.Buf
	IDs      []int64  // packed heap TIDs, in line-pointer order
	Payloads [][]byte // codec payloads
	rows     [][]float32
	suffixes [][]byte
	dists    []float32
}

// Rows returns the payloads viewed as d-dimensional float32 rows,
// computed once per page however many queries score it.
func (r *Run) Rows(d int) [][]float32 {
	if len(r.rows) != len(r.Payloads) {
		r.rows = r.rows[:0]
		for _, p := range r.Payloads {
			r.rows = append(r.rows, pase.Float32View(p)[:d:d])
		}
	}
	return r.rows
}

// Suffixes returns the payloads past their first off bytes, computed
// once per page however many queries score it.
func (r *Run) Suffixes(off int) [][]byte {
	if len(r.suffixes) != len(r.Payloads) {
		r.suffixes = r.suffixes[:0]
		for _, p := range r.Payloads {
			r.suffixes = append(r.suffixes, p[off:])
		}
	}
	return r.suffixes
}

// release drops the escorted pin; the views stored in r are invalid past
// this point.
func (r *Run) release() {
	if r.page != nil {
		r.page.Release()
		r.page = nil
	}
}

// walk visits bucket cid's chain through the buffer pool, one page at a
// time: each page's live entries are gathered into r and handed to visit
// while the page is pinned. Tombstoned entries are skipped (Maintain
// reclaims them). The breakdown timer attributes page and tuple access
// exactly as Table V does.
func (ix *Index) walk(cid int32, r *Run, visit func(*Run) error) error {
	ctx := ix.ctx
	tTuple := ix.tTuple
	blk, off := ix.centroidLoc(int(cid))
	ts := tTuple.Start()
	cbuf, err := ctx.Pool.Pin(ctx.Rel, blk)
	if err != nil {
		tTuple.Stop(ts)
		return err
	}
	centry, err := cbuf.Page().Item(off)
	tTuple.Stop(ts)
	if err != nil {
		cbuf.Release()
		return err
	}
	next := binary.LittleEndian.Uint32(centry[ix.meta.Dim*4:])
	cbuf.Release()

	for next != pase.InvalidBlk {
		ts := tTuple.Start()
		buf, err := ctx.Pool.Pin(ctx.Rel, next)
		if err != nil {
			tTuple.Stop(ts)
			return err
		}
		r.page = buf
		pg := buf.Page()
		r.IDs, r.Payloads, r.rows, r.suffixes = r.IDs[:0], r.Payloads[:0], r.rows[:0], r.suffixes[:0]
		for i := uint16(1); i <= pg.NumItems(); i++ {
			item, err := pg.Item(i)
			if err != nil {
				if errors.Is(err, page.ErrDeadItem) {
					continue
				}
				tTuple.Stop(ts)
				r.release()
				return err
			}
			r.IDs = append(r.IDs, packTID(heap.UnpackTID(item)))
			r.Payloads = append(r.Payloads, item[entryHeaderSize:])
		}
		tTuple.Stop(ts)
		if len(r.IDs) > 0 {
			err = visit(r)
		}
		next = pase.NextBlk(pg)
		r.release()
		if err != nil {
			return err
		}
	}
	return nil
}

// score appends one query's candidates from r to dst: the whole run in
// one Score call, or — under a predicate — only the entries that pass,
// each scored alone.
func (ix *Index) score(sc Scorer, r *Run, pred am.Predicate, dst []minheap.Item) ([]minheap.Item, error) {
	tDist := ix.tDist
	if pred == nil {
		if cap(r.dists) < len(r.IDs) {
			r.dists = make([]float32, len(r.IDs))
		}
		dists := r.dists[:len(r.IDs)]
		ts := tDist.Start()
		sc.Score(r, dists)
		tDist.Stop(ts)
		for i, id := range r.IDs {
			dst = append(dst, minheap.Item{ID: id, Dist: dists[i]})
		}
		return dst, nil
	}
	for i, id := range r.IDs {
		ok, err := pred(unpackTID(id))
		if err != nil {
			return dst, err
		}
		if !ok {
			continue
		}
		ts := tDist.Start()
		dist := sc.ScoreOne(r.Payloads[i])
		tDist.Stop(ts)
		dst = append(dst, minheap.Item{ID: id, Dist: dist})
	}
	return dst, nil
}

// bucket readies sc for bucket cid.
func (ix *Index) bucket(sc Scorer, cid int32) {
	ts := ix.tBucket.Start()
	sc.Bucket(ix.centroid(int(cid)))
	ix.tBucket.Stop(ts)
}

// scanProbes walks the probed buckets in order and hands each page's
// candidates to sink.
func (ix *Index) scanProbes(sc Scorer, probes []int32, pred am.Predicate, sink func([]minheap.Item)) error {
	var run Run
	var cands []minheap.Item
	for _, cid := range probes {
		ix.bucket(sc, cid)
		err := ix.walk(cid, &run, func(r *Run) error {
			var err error
			cands, err = ix.score(sc, r, pred, cands[:0])
			if err == nil {
				sink(cands)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanOpts are the scan-time knobs of one search.
type scanOpts struct {
	kern    vec.Kernel
	nprobe  int
	threads int
	heapK   bool
	beta    int // re-rank over-fetch; 0 when scan distances are final
}

// scanOpts resolves params: nprobe (default 20), threads (default 1,
// read only for unfiltered scans — predicate scans are serial), heap,
// the codec's re-rank knob, and distance_kernel.
func (ix *Index) scanOpts(params map[string]string, unfiltered bool) (scanOpts, error) {
	o := scanOpts{threads: 1, heapK: params["heap"] == "k"}
	var err error
	if o.nprobe, err = pase.OptInt(params, "nprobe", 20); err != nil {
		return o, err
	}
	o.nprobe = max(1, min(o.nprobe, int(ix.meta.NList)))
	if unfiltered {
		if o.threads, err = pase.OptInt(params, "threads", 1); err != nil {
			return o, err
		}
	}
	if ix.m.Rerank != "" {
		if o.beta, err = pase.OptInt(params, ix.m.Rerank, 4); err != nil {
			return o, err
		}
		o.beta = max(o.beta, 1)
	}
	o.kern, err = pase.KernelOpt(params)
	return o, err
}

func (ix *Index) checkQuery(query []float32, k int) error {
	if len(query) != int(ix.meta.Dim) {
		return ix.errorf("query dimension %d != %d", len(query), ix.meta.Dim)
	}
	if k <= 0 {
		return ix.errorf("k must be positive")
	}
	return nil
}

// ranker is one query's top-k collection under the codec-driven rule:
// a re-ranking codec keeps TopK(k·β) for the full-precision pass; a
// codec with final distances uses PASE's size-n collector (RC#6), or a
// bounded TopK(k) under heap=k and on predicate paths. TopK ranks by
// the (Dist, ID) total order, so only the collector depends on push
// order.
type ranker struct {
	k    int
	top  *minheap.TopK
	coll *minheap.Collector
}

func (o scanOpts) ranker(k int, filtered bool) *ranker {
	switch {
	case o.beta > 0:
		return &ranker{k: k, top: minheap.NewTopK(k * o.beta)}
	case filtered || o.heapK:
		return &ranker{k: k, top: minheap.NewTopK(k)}
	}
	return &ranker{k: k, coll: minheap.NewCollector(1024)}
}

func (rk *ranker) add(items []minheap.Item) {
	if rk.coll != nil {
		rk.coll.Append(items)
		return
	}
	for _, it := range items {
		rk.top.Push(it.ID, it.Dist)
	}
}

func (rk *ranker) items() []minheap.Item {
	if rk.coll != nil {
		return rk.coll.PopK(rk.k)
	}
	return rk.top.Results()
}

// finish turns one query's ranked candidates into results, re-ranking at
// full precision when the codec's scan distances are approximate.
func (ix *Index) finish(o scanOpts, query []float32, k int, items []minheap.Item) ([]am.Result, error) {
	if o.beta > 0 {
		return ix.rerank(o.kern, query, k, items)
	}
	return toResults(items), nil
}

func toResults(items []minheap.Item) []am.Result {
	out := make([]am.Result, len(items))
	for i, it := range items {
		out[i] = am.Result{TID: unpackTID(it.ID), Dist: it.Dist}
	}
	return out
}

// rerank re-fetches every candidate's full-precision vector from the
// heap and ranks the exact distances in a TopK(k). The visibility check
// doubles as the executor's re-check: a candidate whose heap tuple died
// since its entry was written is skipped.
func (ix *Index) rerank(kern vec.Kernel, query []float32, k int, cands []minheap.Item) ([]am.Result, error) {
	ts := ix.tRerank.Start()
	defer ix.tRerank.Stop(ts)
	top := minheap.NewTopK(k)
	for _, it := range cands {
		tid := unpackTID(it.ID)
		v, ok, err := ix.ctx.Table.GetVectorVisible(tid, ix.ctx.VecCol)
		if err != nil {
			return nil, ix.errorf("re-rank fetch %v: %w", tid, err)
		}
		if ok {
			top.Push(it.ID, kern.L2Sqr(query, v))
		}
	}
	return toResults(top.Results()), nil
}

// Search implements am.Index. params: nprobe (default 20), threads
// (default 1), heap, distance_kernel, and the codec's re-rank knob.
// Serial search walks the probed buckets in probe-rank order into the
// ranker; threads > 1 pushes into one lock-guarded global heap (RC#3),
// both as the paper describes PASE doing.
func (ix *Index) Search(query []float32, k int, params map[string]string) ([]am.Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.search(query, k, params, nil)
}

// SearchFiltered implements am.FilteredIndex: the predicate is applied
// inside the bucket scans, so non-matching entries are never scored and
// never reach the result heap — the in-traversal strategy of filtered
// kNN. The scan is serial (the predicate callback resolves heap tuples
// and is not synchronized).
func (ix *Index) SearchFiltered(query []float32, k int, params map[string]string, pred am.Predicate) ([]am.Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.search(query, k, params, pred)
}

// search is Search/SearchFiltered under the caller's read lock.
func (ix *Index) search(query []float32, k int, params map[string]string, pred am.Predicate) ([]am.Result, error) {
	if err := ix.checkQuery(query, k); err != nil {
		return nil, err
	}
	o, err := ix.scanOpts(params, pred == nil)
	if err != nil {
		return nil, err
	}
	probes := ix.selectProbes(o.kern, query, o.nprobe)
	if pred == nil && o.threads > 1 {
		return ix.searchParallel(o, query, k, probes)
	}
	rk := o.ranker(k, pred != nil)
	// The RC#6 cost is attributed on the plain final-distance path.
	var tHeap *prof.Timer
	if pred == nil {
		tHeap = ix.tHeap
	}
	err = ix.scanProbes(ix.codec.NewScorer(o.kern, query), probes, pred, func(items []minheap.Item) {
		ts := tHeap.Start()
		rk.add(items)
		tHeap.Stop(ts)
	})
	if err != nil {
		return nil, err
	}
	ts := tHeap.Start()
	items := rk.items()
	tHeap.Stop(ts)
	return ix.finish(o, query, k, items)
}

// searchParallel distributes probed buckets over worker goroutines,
// each with its own scorer; every worker pushes into a single
// mutex-guarded global heap — PASE's strategy in Fig 18, which is why it
// fails to scale. The heap orders by (Dist, ID), so results match the
// serial bounded-heap scan whatever the interleaving.
func (ix *Index) searchParallel(o scanOpts, query []float32, k int, probes []int32) ([]am.Result, error) {
	global := minheap.NewSharedTopK(k * max(o.beta, 1))
	err := scanProbesParallel(probes, o.threads, func() func(int32) error {
		sc := ix.codec.NewScorer(o.kern, query)
		return func(cid int32) error {
			return ix.scanProbes(sc, []int32{cid}, nil, func(items []minheap.Item) {
				for _, it := range items {
					global.Push(it.ID, it.Dist)
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return ix.finish(o, query, k, global.Results())
}

// scanProbesParallel distributes probed bucket IDs over worker
// goroutines. newWorker runs once per goroutine and returns that
// worker's scan function (closing over per-worker scratch, e.g. the
// scorer's distance table).
//
// Probes are handed out through an atomic cursor. The first scan error
// raises a shared cancel flag that every worker checks before taking its
// next probe, so the remaining workers stop promptly instead of scanning
// every leftover probe, and the error propagates as soon as the pool
// drains. Only the first error is returned.
func scanProbesParallel(probes []int32, threads int, newWorker func() func(probe int32) error) error {
	threads = max(1, min(threads, len(probes)))
	var (
		cursor   atomic.Int64
		canceled atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan := newWorker()
			for !canceled.Load() {
				i := cursor.Add(1) - 1
				if i >= int64(len(probes)) {
					return
				}
				if err := scan(probes[i]); err != nil {
					errOnce.Do(func() { firstErr = err })
					canceled.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ScanProbes selects the nprobe buckets nearest to query and streams
// every (tid, distance) candidate to emit, scoring through kern. It
// exposes the bucket-scan machinery to sibling access methods (the
// pgvector-style baseline builds the same structure but ranks
// candidates differently).
func (ix *Index) ScanProbes(kern vec.Kernel, query []float32, nprobe int, emit func(heap.TID, float32)) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nprobe = max(1, min(nprobe, int(ix.meta.NList)))
	return ix.scanProbes(ix.codec.NewScorer(kern, query), ix.selectProbes(kern, query, nprobe), nil, func(items []minheap.Item) {
		for _, it := range items {
			emit(unpackTID(it.ID), it.Dist)
		}
	})
}

// MultiSearch implements am.BatchIndex: a batch of queries executes as
// one multi-query probe. Centroid scoring for the whole batch is a
// single SGEMM-shaped kernel L2SqrNT call (paper RC#1 applied to
// serving), and each probed bucket's page chain is walked once for
// every query probing it, so page pins and tuple accesses are amortized
// across the batch instead of repeated per query.
//
// Results are byte-identical to per-query Search/SearchFiltered calls
// under every kernel (a batch group never mixes kernels —
// distance_kernel is part of the coalescer's group key):
//
//   - every kernel's L2SqrNT is bit-equal, pair by pair, to the solo
//     L2Sqr that selectProbes uses (the kernelparity contract), and the
//     per-query TopK(nprobe) sees centroids in the same c=0..NList-1
//     push order, so probe lists match exactly;
//   - inside the shared walk each subscriber is scored by its own
//     scorer, readied for the bucket exactly as its solo scan readies
//     it, on the identical page runs, through the same path (Score
//     unfiltered, ScoreOne after the predicate);
//   - candidates are recorded per (query, probe-rank) and replayed in
//     each query's own probe-rank order, reproducing the solo push
//     sequence exactly. That matters because the default collector's
//     PopK (RC#6) breaks distance ties by push order; TopK-based paths
//     are push-order independent under the (Dist, ID) total order.
//
// threads > 1 (the RC#3 lock-guarded shared-heap path) is not
// coalesced; the batch degenerates to a per-query loop with solo
// semantics.
func (ix *Index) MultiSearch(queries [][]float32, ks []int, params map[string]string, preds []am.Predicate) ([][]am.Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	B := len(queries)
	if len(ks) != B || (preds != nil && len(preds) != B) {
		return nil, ix.errorf("MultiSearch argument lengths differ")
	}
	if B == 0 {
		return nil, nil
	}
	pred := func(i int) am.Predicate {
		if preds == nil {
			return nil
		}
		return preds[i]
	}
	anyUnfiltered := false
	for i := range queries {
		if err := ix.checkQuery(queries[i], ks[i]); err != nil {
			return nil, err
		}
		anyUnfiltered = anyUnfiltered || pred(i) == nil
	}
	o, err := ix.scanOpts(params, anyUnfiltered)
	if err != nil {
		return nil, err
	}
	out := make([][]am.Result, B)
	if o.threads > 1 {
		for i := range queries {
			if out[i], err = ix.search(queries[i], ks[i], params, pred(i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Invert probe lists into per-bucket subscriber lists and scan the
	// bucket union once, in ascending bucket order, recording candidates
	// per (query, probe-rank).
	probes := ix.multiSelectProbes(o.kern, queries, o.nprobe)
	type sub struct{ qi, rank int }
	subs := make(map[int32][]sub)
	for qi, ps := range probes {
		for rank, cid := range ps {
			subs[cid] = append(subs[cid], sub{qi, rank})
		}
	}
	order := make([]int32, 0, len(subs))
	for cid := range subs {
		order = append(order, cid)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	scorers := make([]Scorer, B)
	cand := make([][][]minheap.Item, B)
	for i := range queries {
		scorers[i] = ix.codec.NewScorer(o.kern, queries[i])
		cand[i] = make([][]minheap.Item, len(probes[i]))
	}
	var run Run
	for _, cid := range order {
		ss := subs[cid]
		for _, sb := range ss {
			ix.bucket(scorers[sb.qi], cid)
		}
		err := ix.walk(cid, &run, func(r *Run) error {
			for _, sb := range ss {
				var err error
				if cand[sb.qi][sb.rank], err = ix.score(scorers[sb.qi], r, pred(sb.qi), cand[sb.qi][sb.rank]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Replay each query's candidates in its solo push order and rank them
	// with the same rule its solo call would use.
	for i := range queries {
		rk := o.ranker(ks[i], pred(i) != nil)
		for _, lst := range cand[i] {
			rk.add(lst)
		}
		if out[i], err = ix.finish(o, queries[i], ks[i], rk.items()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selectProbes ranks all centroids by distance (kernel calls over the
// centroid cache) and returns the nprobe nearest bucket IDs.
func (ix *Index) selectProbes(kern vec.Kernel, query []float32, nprobe int) []int32 {
	dists := make([]float32, ix.meta.NList)
	for c := range dists {
		dists[c] = kern.L2Sqr(query, ix.centroid(c))
	}
	return topProbes(dists, nprobe)
}

// multiSelectProbes ranks all centroids against the whole batch with one
// batched scoring call and returns each query's nprobe nearest bucket
// IDs — the same lists selectProbes produces, since the kernel's
// L2SqrNT matches its solo L2Sqr bitwise per pair and the TopK push
// order (c ascending) is shared.
func (ix *Index) multiSelectProbes(kern vec.Kernel, queries [][]float32, nprobe int) [][]int32 {
	d := int(ix.meta.Dim)
	nlist := int(ix.meta.NList)
	B := len(queries)
	flat := make([]float32, B*d)
	for i, q := range queries {
		copy(flat[i*d:(i+1)*d], q)
	}
	dists := make([]float32, B*nlist)
	vec.NTParallel(kern, flat, B, d, ix.centroids[:nlist*d], nlist, dists, 0)
	out := make([][]int32, B)
	for i := range queries {
		out[i] = topProbes(dists[i*nlist:(i+1)*nlist], nprobe)
	}
	return out
}

// topProbes returns the IDs of the nprobe smallest centroid distances,
// nearest first.
func topProbes(dists []float32, nprobe int) []int32 {
	h := minheap.NewTopK(nprobe)
	for c, dist := range dists {
		h.Push(int64(c), dist)
	}
	items := h.Results()
	out := make([]int32, len(items))
	for i, it := range items {
		out[i] = int32(it.ID)
	}
	return out
}

// packTID squeezes a TID into an int64 for the heap item ID.
func packTID(tid heap.TID) int64 {
	return int64(tid.Blk)<<16 | int64(tid.Off)
}

func unpackTID(v int64) heap.TID {
	return heap.TID{Blk: uint32(v >> 16), Off: uint16(v & 0xFFFF)}
}
