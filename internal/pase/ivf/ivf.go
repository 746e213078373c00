// Package ivf is the IVF access-method skeleton behind ivfflat, ivfpq
// and ivfsq8. It owns everything that does not depend on how a bucket
// entry is encoded and scored: the meta and centroid pages, bucket-chain
// append, tombstoning and compaction, probe selection, the pinned chain
// walk, and the serial, bounded-heap, parallel, filtered and
// multi-query scan paths. A Codec supplies the rest — training,
// entry payloads, and scoring — so each access method package is one
// codec plus its registration.
//
// On-page structure, shared by every codec: a meta page (block 0), the
// codec's parameter pages (before or after the centroid pages, see
// ParamPages), centroid pages holding the full-precision centroids with
// each bucket's head/tail pointers and population, and per-bucket
// chains of data pages whose entries pack a heap TID with the codec's
// payload.
//
// Faithful PASE behaviours the study measures:
//
//   - RC#1: the adding phase assigns vectors with plain scalar distance
//     loops (no SGEMM batching).
//   - RC#2: every bucket scan pins pages through the shared buffer pool
//     and locates entries via line pointers.
//   - RC#3: intra-query parallelism pushes candidates into one global
//     lock-guarded heap.
//   - RC#5: centroids come from the PASE-flavour K-means.
//   - RC#6: codecs with final scan distances rank through a size-n
//     collector heap, not a size-k heap (SET heap = k switches).
//   - RC#7: a codec may rebuild per-query state for every probed bucket
//     (Scorer.Bucket), which is where IVF_PQ's naive table lives.
package ivf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/pase"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
	"vecstudy/internal/prof"
	"vecstudy/internal/vec"
)

// Codec encodes vectors as bucket-entry payloads and scores them: the
// one part of an IVF index that differs between access methods.
type Codec interface {
	// Train fits the codec to the n build rows (row-major), given the
	// trained coarse centroids and the index's WITH options.
	Train(opts map[string]string, rows []float32, n int, centroids []float32) error
	// Save returns the trained parameters to persist: words for the meta
	// item and items for the codec's parameter pages.
	Save() (words []uint32, items [][]byte)
	// Load restores what Save persisted; read returns the first n
	// parameter-page items.
	Load(words []uint32, read func(n int) ([][]byte, error)) error
	// EntrySize is the payload size of one bucket entry.
	EntrySize() int
	// Encode writes x's payload into dst; centroid is x's bucket centroid.
	Encode(dst []byte, x, centroid []float32)
	// NewScorer prepares scoring against one query under kern.
	NewScorer(kern vec.Kernel, query []float32) Scorer
}

// Scorer scores bucket entries against one query. A scorer is used by
// one goroutine at a time.
type Scorer interface {
	// Bucket readies the scorer for the entries of the bucket whose
	// centroid is given (IVF_PQ's per-bucket table, RC#7).
	Bucket(centroid []float32)
	// Score writes the distance of every entry of r into out. Scans
	// without a predicate score through it.
	Score(r *Run, out []float32)
	// ScoreOne scores one payload. Predicate paths score each entry that
	// passes through it.
	ScoreOne(payload []byte) float32
}

// ParamPages places a codec's parameter pages in the index relation.
type ParamPages int

const (
	// NoParamPages: the codec persists nothing besides its entries.
	NoParamPages ParamPages = iota
	// ParamChainFirst: a page chain between the meta page and the
	// centroid pages.
	ParamChainFirst
	// ParamPagesLast: unchained, consecutive pages after the centroid
	// pages.
	ParamPagesLast
)

// Method describes one IVF access method to the skeleton.
type Method struct {
	// Name is the USING name; errors are prefixed "pase/<Name>:".
	Name string
	// NewCodec returns an untrained codec for dim-dimensional vectors.
	NewCodec func(dim int) Codec
	// Params places the codec's parameter pages.
	Params ParamPages
	// DistTimer and BucketTimer name the prof timers around scoring and
	// around Scorer.Bucket; an empty name leaves that step untimed.
	DistTimer, BucketTimer string
	// Rerank names the SET knob holding the over-fetch factor β (default
	// 4) of a codec whose scan distances are approximate: the scan keeps
	// k·β candidates and re-ranks them at full precision, timed under the
	// same name. Empty means scan distances are final.
	Rerank string
}

// centroid entry layout: vector (dim·4) then bucket bookkeeping.
const centroidTrailerSize = 16 // firstBlk u32 | lastBlk u32 | count u32 | pad u32

// data entry layout: packed TID (6) + pad (2) so the payload lands
// MAXALIGN-compatible, then the codec's payload.
const entryHeaderSize = 8

// meta is item 1 of block 0: Dim, NList, the codec's words,
// FirstCentroidBlk, CentroidsPerPage, then FirstParamBlk when the codec
// has parameter pages.
type meta struct {
	Dim, NList                         uint32
	Words                              []uint32
	FirstCentroidBlk, CentroidsPerPage uint32
	FirstParamBlk                      uint32
}

func (ix *Index) encodeMeta() []byte {
	m := ix.meta
	w := append([]uint32{m.Dim, m.NList}, m.Words...)
	w = append(w, m.FirstCentroidBlk, m.CentroidsPerPage)
	if ix.m.Params != NoParamPages {
		w = append(w, m.FirstParamBlk)
	}
	b := make([]byte, 4*len(w))
	for i, x := range w {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	return b
}

func (ix *Index) decodeMeta(b []byte) error {
	w := make([]uint32, len(b)/4)
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	tail := 2
	if ix.m.Params != NoParamPages {
		tail = 3
	}
	if len(w) < 2+tail {
		return fmt.Errorf("meta item of %d bytes is too short", len(b))
	}
	n := len(w) - tail
	ix.meta = meta{
		Dim: w[0], NList: w[1], Words: w[2:n],
		FirstCentroidBlk: w[n], CentroidsPerPage: w[n+1],
		FirstParamBlk: pase.InvalidBlk,
	}
	if tail == 3 {
		ix.meta.FirstParamBlk = w[n+2]
	}
	return nil
}

// Index is a built IVF index. The access-method packages wrap it in
// their own named types.
type Index struct {
	m     *Method
	ctx   *am.BuildContext
	codec Codec
	meta  meta

	// centroids holds the centroid vectors read once at open; PASE
	// similarly keeps centroid buffers pinned during build/search since
	// access is sequential.
	centroids []float32

	// mu orders bucket appends and compaction (held exclusively) against
	// bucket scans (held shared): SQL INSERT and SELECT both hold the
	// engine's statement gate shared, so the index orders them itself.
	// Each public read entry takes the read lock exactly once and the
	// internal paths never lock again — sync.RWMutex read locks are not
	// reentrant once a writer waits.
	mu sync.RWMutex

	dead atomic.Int64 // tombstoned entries awaiting Maintain

	stats BuildStats

	// Breakdown timers (nil when profiling is off): page and tuple access,
	// scoring, per-bucket scorer setup, heap maintenance on the plain
	// final-distance path (RC#6), and the full-precision re-rank.
	tTuple, tDist, tBucket, tHeap, tRerank *prof.Timer
}

func newIndex(ctx *am.BuildContext, m *Method) *Index {
	timer := func(name string) *prof.Timer {
		if name == "" {
			return nil
		}
		return ctx.Prof.Timer(name)
	}
	ix := &Index{
		m: m, ctx: ctx, codec: m.NewCodec(ctx.Dim),
		tTuple: timer("tuple_access"), tDist: timer(m.DistTimer),
		tBucket: timer(m.BucketTimer), tRerank: timer(m.Rerank),
	}
	if m.Rerank == "" {
		ix.tHeap = timer("min-heap")
	}
	return ix
}

// BuildStats reports the construction phases of Figs 3–6.
type BuildStats struct {
	TrainTime time.Duration
	AddTime   time.Duration
	NAdded    int
}

// Stats returns the build phase timings.
func (ix *Index) Stats() BuildStats { return ix.stats }

// AM implements am.Index.
func (ix *Index) AM() string { return ix.m.Name }

// Codec returns the index's trained codec.
func (ix *Index) Codec() Codec { return ix.codec }

// Centroids returns the trained centroid matrix (NList×Dim) — the hook
// the Fig 15 experiment uses to transplant PASE's clustering into Faiss*.
func (ix *Index) Centroids() []float32 { return ix.centroids }

// NList returns the number of buckets.
func (ix *Index) NList() int { return int(ix.meta.NList) }

func (ix *Index) errorf(format string, args ...any) error {
	return fmt.Errorf("pase/%s: %w", ix.m.Name, fmt.Errorf(format, args...))
}

// Build trains the coarse centroids and the codec over the table's
// vectors and bulk-loads every row into its bucket. Options: clusters
// (c), sample_ratio (sr), seed, plus the codec's own.
func Build(ctx *am.BuildContext, m *Method) (*Index, error) {
	ix := newIndex(ctx, m)
	nlist, err := pase.OptInt(ctx.Opts, "clusters", 256)
	if err != nil {
		return nil, err
	}
	sr, err := pase.OptFloat(ctx.Opts, "sample_ratio", 0.01)
	if err != nil {
		return nil, err
	}
	seed, err := pase.OptInt(ctx.Opts, "seed", 0)
	if err != nil {
		return nil, err
	}
	if nlist <= 0 {
		return nil, ix.errorf("clusters must be positive")
	}

	// Phase 0: scan the heap to materialize (tid, vector) pairs. PASE's
	// ambuild does the same underlying table scan through the buffer pool.
	start := time.Now()
	var tids []heap.TID
	data := vec.NewFlat(ctx.Dim, 1024)
	err = ctx.Table.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		v, err := ctx.Table.Schema().VectorAt(tup, ctx.VecCol)
		if err != nil {
			return false, err
		}
		if len(v) != ctx.Dim {
			return false, ix.errorf("row %v has dimension %d, index expects %d", tid, len(v), ctx.Dim)
		}
		tids = append(tids, tid)
		data.Append(v)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	n := data.N()
	if n < nlist {
		return nil, ix.errorf("%d rows cannot form %d clusters", n, nlist)
	}

	// Training phase: PASE-flavour K-means, naive distance kernels.
	res, err := kmeans.Train(data.Data, n, ctx.Dim, kmeans.Config{
		K:           nlist,
		Seed:        int64(seed),
		SampleRatio: sr,
		UseGemm:     false, // RC#1: PASE has no SGEMM path
		Threads:     1,     // RC#3: PASE builds single-threaded
		Flavor:      kmeans.FlavorPASE,
	})
	if err != nil {
		return nil, err
	}
	if err := ix.codec.Train(ctx.Opts, data.Data, n, res.Centroids); err != nil {
		return nil, err
	}
	trainTime := time.Since(start)

	// Write the index structure, then the adding phase: assign each
	// vector with naive scalar loops and append it to its bucket through
	// the buffer manager.
	addStart := time.Now()
	if err := ix.initPages(res.Centroids, nlist); err != nil {
		return nil, err
	}
	d := ctx.Dim
	entry := make([]byte, entryHeaderSize+ix.codec.EntrySize())
	for i := 0; i < n; i++ {
		x := data.Data[i*d : (i+1)*d]
		cid := ix.nearestCentroid(x)
		ix.encode(entry, x, cid, tids[i])
		if err := ix.appendEntry(cid, entry); err != nil {
			return nil, err
		}
	}
	ix.stats = BuildStats{TrainTime: trainTime, AddTime: time.Since(addStart), NAdded: n}
	return ix, nil
}

// Open re-binds an existing index relation (e.g., after restart),
// reloading the centroids and the codec's persisted parameters.
func Open(ctx *am.BuildContext, m *Method) (*Index, error) {
	ix := newIndex(ctx, m)
	buf, err := ctx.Pool.Pin(ctx.Rel, 0)
	if err != nil {
		return nil, err
	}
	item, err := buf.Page().Item(1)
	if err == nil {
		err = ix.decodeMeta(item)
	}
	buf.Release()
	if err != nil {
		return nil, ix.errorf("reading meta page: %w", err)
	}
	if int(ix.meta.Dim) != ctx.Dim {
		return nil, ix.errorf("index dim %d != table dim %d", ix.meta.Dim, ctx.Dim)
	}
	if err := ix.codec.Load(ix.meta.Words, ix.readParams); err != nil {
		return nil, err
	}
	return ix, ix.loadCentroids()
}

// initPages lays out the meta page, the codec's parameter pages and the
// centroid pages.
func (ix *Index) initPages(centroids []float32, nlist int) error {
	ctx := ix.ctx
	d := ctx.Dim
	entrySize := d*4 + centroidTrailerSize
	usable := ctx.Pool.PageSize() - page.HeaderSize
	perPage := usable / (entrySize + page.ItemIDSize + page.MaxAlign)
	if perPage == 0 {
		return ix.errorf("centroid entry of %d bytes does not fit page", entrySize)
	}

	metaBuf, metaBlk, err := ctx.Pool.NewPage(ctx.Rel)
	if err != nil {
		return err
	}
	if metaBlk != 0 {
		metaBuf.Release()
		return ix.errorf("meta page allocated at block %d", metaBlk)
	}
	page.Init(metaBuf.Page(), 0)
	words, items := ix.codec.Save()
	ix.meta = meta{
		Dim: uint32(d), NList: uint32(nlist), Words: words,
		CentroidsPerPage: uint32(perPage), FirstParamBlk: pase.InvalidBlk,
	}
	if ix.m.Params == ParamChainFirst {
		ix.meta.FirstParamBlk, err = ix.writeParams(items, true)
	}
	if err == nil {
		ix.meta.FirstCentroidBlk, err = ix.writeCentroids(centroids, nlist, perPage)
	}
	if err == nil && ix.m.Params == ParamPagesLast {
		ix.meta.FirstParamBlk, err = ix.writeParams(items, false)
	}
	if err == nil {
		_, err = metaBuf.Page().AddItem(ix.encodeMeta())
	}
	if err != nil {
		metaBuf.Release()
		return err
	}
	metaBuf.MarkDirty()
	metaBuf.Release()
	return ix.loadCentroids()
}

// writeCentroids lays out the centroid pages and returns the first
// centroid block.
func (ix *Index) writeCentroids(centroids []float32, nlist, perPage int) (uint32, error) {
	ctx := ix.ctx
	d := ctx.Dim
	entry := make([]byte, d*4+centroidTrailerSize)
	trailer := entry[d*4:]
	binary.LittleEndian.PutUint32(trailer[0:], pase.InvalidBlk)
	binary.LittleEndian.PutUint32(trailer[4:], pase.InvalidBlk)
	first := pase.InvalidBlk
	for written := 0; written < nlist; {
		buf, blk, err := ctx.Pool.NewPage(ctx.Rel)
		if err != nil {
			return 0, err
		}
		if first == pase.InvalidBlk {
			first = blk
		}
		page.Init(buf.Page(), 0)
		for i := 0; i < perPage && written < nlist; i++ {
			pase.PutFloat32s(entry, centroids[written*d:(written+1)*d])
			if _, err := buf.Page().AddItem(entry); err != nil {
				buf.Release()
				return 0, err
			}
			written++
		}
		buf.MarkDirty()
		buf.Release()
	}
	return first, nil
}

// writeParams stores the codec's parameter items in order on fresh
// pages, filling each page before allocating the next; chained pages
// link through the page-chain convention. It returns the first block.
func (ix *Index) writeParams(items [][]byte, chained bool) (uint32, error) {
	ctx := ix.ctx
	special := 0
	if chained {
		special = pase.ChainSpecialSize
	}
	first := pase.InvalidBlk
	var cur *buffer.Buf
	for _, item := range items {
		if cur != nil {
			_, err := cur.Page().AddItem(item)
			if err == nil {
				continue
			}
			if !errors.Is(err, page.ErrPageFull) {
				cur.Release()
				return 0, err
			}
		}
		next, blk, err := ctx.Pool.NewPage(ctx.Rel)
		if err != nil {
			if cur != nil {
				cur.Release()
			}
			return 0, err
		}
		page.Init(next.Page(), special)
		if first == pase.InvalidBlk {
			first = blk
		}
		if cur != nil {
			if chained {
				pase.SetNextBlk(cur.Page(), blk)
			}
			cur.MarkDirty()
			cur.Release()
		}
		cur = next
		if chained {
			pase.SetNextBlk(cur.Page(), pase.InvalidBlk)
		}
		if _, err := cur.Page().AddItem(item); err != nil {
			cur.Release()
			return 0, err
		}
	}
	if cur != nil {
		cur.MarkDirty()
		cur.Release()
	}
	return first, nil
}

// readParams returns copies of the first n parameter-page items.
func (ix *Index) readParams(n int) ([][]byte, error) {
	ctx := ix.ctx
	out := make([][]byte, 0, n)
	for blk := ix.meta.FirstParamBlk; len(out) < n && blk != pase.InvalidBlk; {
		buf, err := ctx.Pool.Pin(ctx.Rel, blk)
		if err != nil {
			return nil, err
		}
		pg := buf.Page()
		for i := uint16(1); i <= pg.NumItems() && len(out) < n; i++ {
			item, err := pg.Item(i)
			if err != nil {
				buf.Release()
				return nil, err
			}
			out = append(out, append([]byte(nil), item...))
		}
		if ix.m.Params == ParamChainFirst {
			blk = pase.NextBlk(pg)
		} else {
			blk++
		}
		buf.Release()
	}
	return out, nil
}

// loadCentroids reads every centroid vector into memory once.
func (ix *Index) loadCentroids() error {
	ctx := ix.ctx
	d := int(ix.meta.Dim)
	nlist := int(ix.meta.NList)
	cache := make([]float32, 0, nlist*d)
	for blk := ix.meta.FirstCentroidBlk; len(cache) < nlist*d; blk++ {
		buf, err := ctx.Pool.Pin(ctx.Rel, blk)
		if err != nil {
			return err
		}
		pg := buf.Page()
		for i := uint16(1); i <= pg.NumItems() && len(cache) < nlist*d; i++ {
			item, err := pg.Item(i)
			if err != nil {
				buf.Release()
				return err
			}
			cache = append(cache, pase.Float32View(item[:d*4])...)
		}
		buf.Release()
	}
	ix.centroids = cache
	return nil
}

// centroid returns bucket cid's centroid vector.
func (ix *Index) centroid(cid int) []float32 {
	d := int(ix.meta.Dim)
	return ix.centroids[cid*d : (cid+1)*d]
}

// centroidLoc maps a centroid ID to its page slot.
func (ix *Index) centroidLoc(cid int) (uint32, uint16) {
	per := int(ix.meta.CentroidsPerPage)
	return ix.meta.FirstCentroidBlk + uint32(cid/per), uint16(cid%per) + 1
}

// refKern is the fixed reference kernel for bucket assignment: Insert
// and Delete must re-derive the same bucket for a vector regardless of
// the session's SET distance_kernel, so assignment arithmetic is pinned
// here and never dispatched.
var refKern = vec.Ref()

// Nearest runs the PASE-style scalar argmin of x over the row-major
// centroids on the ref kernel, the session-independent bucket
// assignment every codec trains and encodes against.
func Nearest(x, centroids []float32) int {
	d := len(x)
	best, bestD := 0, refKern.L2Sqr(x, centroids[:d])
	for c := 1; c*d < len(centroids); c++ {
		if dd := refKern.L2Sqr(x, centroids[c*d:(c+1)*d]); dd < bestD {
			best, bestD = c, dd
		}
	}
	return best
}

func (ix *Index) nearestCentroid(x []float32) int { return Nearest(x, ix.centroids) }

// encode fills entry with tid and x's payload for bucket cid.
func (ix *Index) encode(entry []byte, x []float32, cid int, tid heap.TID) {
	tid.Pack(entry)
	ix.codec.Encode(entry[entryHeaderSize:], x, ix.centroid(cid))
}

// appendEntry adds an encoded entry to bucket cid's data-page chain.
func (ix *Index) appendEntry(cid int, entry []byte) error {
	ctx := ix.ctx
	d := int(ix.meta.Dim)
	blk, off := ix.centroidLoc(cid)
	cbuf, err := ctx.Pool.Pin(ctx.Rel, blk)
	if err != nil {
		return err
	}
	centry, err := cbuf.Page().Item(off)
	if err != nil {
		cbuf.Release()
		return err
	}
	trailer := centry[d*4:]
	lastBlk := binary.LittleEndian.Uint32(trailer[4:])

	var tail *buffer.Buf // the full tail page the new page chains after
	if lastBlk != pase.InvalidBlk {
		tail, err = ctx.Pool.Pin(ctx.Rel, lastBlk)
		if err != nil {
			cbuf.Release()
			return err
		}
		_, err = tail.Page().AddItem(entry)
		if err == nil || !errors.Is(err, page.ErrPageFull) {
			if err == nil {
				tail.MarkDirty()
				bumpCount(cbuf, trailer)
			}
			tail.Release()
			cbuf.Release()
			return err
		}
	}
	// A fresh page: the bucket's head, or a chain extension.
	nbuf, nblk, err := ctx.Pool.NewPage(ctx.Rel)
	if err == nil {
		page.Init(nbuf.Page(), pase.ChainSpecialSize)
		pase.SetNextBlk(nbuf.Page(), pase.InvalidBlk)
		_, err = nbuf.Page().AddItem(entry)
		nbuf.MarkDirty()
		nbuf.Release()
	}
	if err != nil {
		if tail != nil {
			tail.Release()
		}
		cbuf.Release()
		return err
	}
	if tail != nil {
		pase.SetNextBlk(tail.Page(), nblk)
		tail.MarkDirty()
		tail.Release()
	} else {
		binary.LittleEndian.PutUint32(trailer[0:], nblk)
	}
	binary.LittleEndian.PutUint32(trailer[4:], nblk)
	bumpCount(cbuf, trailer)
	cbuf.Release()
	return nil
}

// bumpCount increments the bucket population stored in the centroid entry.
func bumpCount(cbuf *buffer.Buf, trailer []byte) {
	binary.LittleEndian.PutUint32(trailer[8:], binary.LittleEndian.Uint32(trailer[8:])+1)
	cbuf.MarkDirty()
}

// Insert implements am.Index. The bucket and the payload are derived
// before the index lock is taken; only the chain append holds it.
func (ix *Index) Insert(v []float32, tid heap.TID) error {
	if len(v) != int(ix.meta.Dim) {
		return ix.errorf("inserting %d-dim vector into %d-dim index", len(v), ix.meta.Dim)
	}
	cid := ix.nearestCentroid(v)
	entry := make([]byte, entryHeaderSize+ix.codec.EntrySize())
	ix.encode(entry, v, cid, tid)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.appendEntry(cid, entry); err != nil {
		return err
	}
	ix.stats.NAdded++
	return nil
}

// SizeBytes reports the index relation's page footprint (pages × page
// size), the way Figs 11–12 measure on-disk index size.
func (ix *Index) SizeBytes() (int64, error) {
	nblocks, err := ix.ctx.Pool.NumBlocks(ix.ctx.Rel)
	if err != nil {
		return 0, err
	}
	return int64(nblocks) * int64(ix.ctx.Pool.PageSize()), nil
}

// Assignments maps every indexed TID to its bucket (Fig 15 transplant).
func (ix *Index) Assignments() (map[heap.TID]int32, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[heap.TID]int32, ix.stats.NAdded)
	var run Run
	for cid := int32(0); cid < int32(ix.meta.NList); cid++ {
		err := ix.walk(cid, &run, func(r *Run) error {
			for _, id := range r.IDs {
				out[unpackTID(id)] = cid
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
