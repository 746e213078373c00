package ivf

import (
	"encoding/binary"
	"errors"

	"vecstudy/internal/pase"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
)

// Delete implements am.MutableIndex: the entry for (v, tid) is
// tombstoned in place (its line pointer's dead bit is set) so every
// bucket scan skips it immediately; the bytes stay on the page until
// Maintain compacts the bucket chain. The owning bucket is re-derived
// from v — nearestCentroid is deterministic, so the bucket chosen here
// is the one Insert/Build appended the entry to.
func (ix *Index) Delete(v []float32, tid heap.TID) (bool, error) {
	if len(v) != int(ix.meta.Dim) {
		return false, ix.errorf("deleting %d-dim vector from %d-dim index", len(v), ix.meta.Dim)
	}
	cid := ix.nearestCentroid(v)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	found, err := ix.tombstone(cid, tid)
	if err != nil || !found {
		return false, err
	}
	ix.dead.Add(1)
	return true, nil
}

// DeadCount implements am.MutableIndex.
func (ix *Index) DeadCount() int64 { return ix.dead.Load() }

// tombstone walks bucket cid's chain, marks the entry with the given
// heap TID dead, and decrements the bucket's population counter.
func (ix *Index) tombstone(cid int, tid heap.TID) (bool, error) {
	ctx := ix.ctx
	d := int(ix.meta.Dim)
	blk, off := ix.centroidLoc(cid)
	cbuf, err := ctx.Pool.Pin(ctx.Rel, blk)
	if err != nil {
		return false, err
	}
	centry, err := cbuf.Page().Item(off)
	if err != nil {
		cbuf.Release()
		return false, err
	}
	trailer := centry[d*4:]
	next := binary.LittleEndian.Uint32(trailer[0:])

	for next != pase.InvalidBlk {
		dbuf, err := ctx.Pool.Pin(ctx.Rel, next)
		if err != nil {
			cbuf.Release()
			return false, err
		}
		pg := dbuf.Page()
		for i := uint16(1); i <= pg.NumItems(); i++ {
			item, err := pg.Item(i)
			if err != nil {
				if errors.Is(err, page.ErrDeadItem) {
					continue
				}
				dbuf.Release()
				cbuf.Release()
				return false, err
			}
			if heap.UnpackTID(item) != tid {
				continue
			}
			if err := pg.DeleteItem(i); err != nil {
				dbuf.Release()
				cbuf.Release()
				return false, err
			}
			dbuf.MarkDirty()
			dbuf.Release()
			count := binary.LittleEndian.Uint32(trailer[8:])
			if count > 0 {
				binary.LittleEndian.PutUint32(trailer[8:], count-1)
				cbuf.MarkDirty()
			}
			cbuf.Release()
			return true, nil
		}
		nxt := pase.NextBlk(pg)
		dbuf.Release()
		next = nxt
	}
	cbuf.Release()
	return false, nil
}

// Maintain implements am.MutableIndex: every bucket chain is rewritten
// in place dropping tombstoned entries — IVF list compaction. Live
// entries repack into the chain's existing pages front to back (entry
// size is uniform, so the repack always fits); pages past the new tail
// are unlinked from the chain and orphaned (block-level reclamation
// would need a free-space map, which the substrate doesn't have — same
// trade PostgreSQL makes without VACUUM FULL). Returns the number of
// tombstones removed.
func (ix *Index) Maintain() (int64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var removed int64
	for cid := 0; cid < int(ix.meta.NList); cid++ {
		n, err := ix.compactBucket(cid)
		if err != nil {
			return removed, err
		}
		removed += n
	}
	ix.dead.Store(0)
	return removed, nil
}

// compactBucket rewrites one bucket's chain dropping dead entries.
func (ix *Index) compactBucket(cid int) (int64, error) {
	ctx := ix.ctx
	d := int(ix.meta.Dim)
	blk, off := ix.centroidLoc(cid)
	cbuf, err := ctx.Pool.Pin(ctx.Rel, blk)
	if err != nil {
		return 0, err
	}
	centry, err := cbuf.Page().Item(off)
	if err != nil {
		cbuf.Release()
		return 0, err
	}
	trailer := centry[d*4:]
	first := binary.LittleEndian.Uint32(trailer[0:])
	if first == pase.InvalidBlk {
		cbuf.Release()
		return 0, nil
	}

	// Pass 1: collect live entries and the chain's block numbers.
	var entries [][]byte
	var chain []uint32
	var dead int64
	next := first
	for next != pase.InvalidBlk {
		dbuf, err := ctx.Pool.Pin(ctx.Rel, next)
		if err != nil {
			cbuf.Release()
			return 0, err
		}
		pg := dbuf.Page()
		chain = append(chain, next)
		for i := uint16(1); i <= pg.NumItems(); i++ {
			item, err := pg.Item(i)
			if err != nil {
				if errors.Is(err, page.ErrDeadItem) {
					dead++
					continue
				}
				dbuf.Release()
				cbuf.Release()
				return 0, err
			}
			entries = append(entries, append([]byte(nil), item...))
		}
		next = pase.NextBlk(pg)
		dbuf.Release()
	}
	if dead == 0 {
		cbuf.Release()
		return 0, nil
	}

	// Pass 2: rewrite the chain's pages front to back with the live
	// entries, terminating the chain at the last page used.
	ei := 0
	newLast := first
	for pi := 0; pi < len(chain); pi++ {
		dbuf, err := ctx.Pool.Pin(ctx.Rel, chain[pi])
		if err != nil {
			cbuf.Release()
			return 0, err
		}
		pg := dbuf.Page()
		page.Init(pg, pase.ChainSpecialSize)
		for ei < len(entries) {
			if _, err := pg.AddItem(entries[ei]); err != nil {
				if errors.Is(err, page.ErrPageFull) {
					break
				}
				dbuf.Release()
				cbuf.Release()
				return 0, err
			}
			ei++
		}
		more := ei < len(entries)
		if more {
			if pi+1 >= len(chain) {
				dbuf.Release()
				cbuf.Release()
				return 0, ix.errorf("bucket %d repack overflowed its chain", cid)
			}
			pase.SetNextBlk(pg, chain[pi+1])
		} else {
			pase.SetNextBlk(pg, pase.InvalidBlk)
		}
		dbuf.MarkDirty()
		newLast = chain[pi]
		dbuf.Release()
		if !more {
			break
		}
	}

	binary.LittleEndian.PutUint32(trailer[0:], first)
	binary.LittleEndian.PutUint32(trailer[4:], newLast)
	binary.LittleEndian.PutUint32(trailer[8:], uint32(len(entries)))
	cbuf.MarkDirty()
	cbuf.Release()
	return dead, nil
}
