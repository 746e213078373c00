package ivf_test

import (
	"sync"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/vec"
)

// probeScanner is the bucket-scan entry the IVF indexes expose to the
// pgvector-style sibling (before the shared skeleton, only ivfflat had
// it).
type probeScanner interface {
	ScanProbes(kern vec.Kernel, query []float32, nprobe int, emit func(heap.TID, float32)) error
}

// TestInsertDuringReads runs index inserts against concurrent readers on
// every read entry of every IVF access method. SQL INSERT and SELECT
// both hold the engine's statement gate shared, so the index itself
// must order bucket appends against bucket scans; under -race any
// unsynchronized page access fails the test. Every heap row is written
// before the concurrent phase: only the index is mutated while readers
// run.
func TestInsertDuringReads(t *testing.T) {
	const built, total = 400, 600
	for _, amName := range confAMs {
		t.Run(amName, func(t *testing.T) {
			fx := newFixture(t, amName)
			fx.load(t, built)
			ix := fx.build(t, amName)
			fx.load(t, total-built)

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := built; i < total; i++ {
					if err := ix.Insert(fx.vecs[i], fx.tids[i]); err != nil {
						t.Errorf("Insert row %d: %v", i, err)
						return
					}
				}
			}()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					readLoop(t, ix, r, done)
				}(r)
			}
			wg.Wait()

			// Every inserted entry landed in its bucket.
			for i := built; i < total; i++ {
				if found, err := ix.(am.MutableIndex).Delete(fx.vecs[i], fx.tids[i]); err != nil || !found {
					t.Fatalf("Delete row %d = (%v, %v), want the inserted entry", i, found, err)
				}
			}
		})
	}
}

// readLoop issues Search, SearchFiltered, MultiSearch and (where the AM
// has it) ScanProbes until done closes, at least once each.
func readLoop(t *testing.T, ix am.Index, r int, done <-chan struct{}) {
	params := map[string]string{"nprobe": confNProbe}
	qs, ks, preds := multiBatch()
	for i := 0; ; i++ {
		q := confQuery(r*1000 + i%50)
		if _, err := ix.Search(q, confK, params); err != nil {
			t.Errorf("Search: %v", err)
			return
		}
		if _, err := ix.(am.FilteredIndex).SearchFiltered(q, confK, params, confPred); err != nil {
			t.Errorf("SearchFiltered: %v", err)
			return
		}
		if _, err := ix.(am.BatchIndex).MultiSearch(qs, ks, params, preds); err != nil {
			t.Errorf("MultiSearch: %v", err)
			return
		}
		if ps, ok := ix.(probeScanner); ok {
			if err := ps.ScanProbes(vec.Ref(), q, 4, func(heap.TID, float32) {}); err != nil {
				t.Errorf("ScanProbes: %v", err)
				return
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
