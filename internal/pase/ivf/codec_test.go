package ivf_test

import (
	"math"
	"testing"

	"vecstudy/internal/minheap"
	"vecstudy/internal/pase/ivfflat"
	"vecstudy/internal/pase/ivfpq"
	"vecstudy/internal/pase/ivfsq8"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

func assertSameResults(t *testing.T, label string, got, want []am.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for j := range got {
		if got[j].TID != want[j].TID || math.Float32bits(got[j].Dist) != math.Float32bits(want[j].Dist) {
			t.Fatalf("%s rank %d: (%v, %x) != (%v, %x)", label, j,
				got[j].TID, math.Float32bits(got[j].Dist), want[j].TID, math.Float32bits(want[j].Dist))
		}
	}
}

func builtFixture(t *testing.T, amName string) (*fixture, am.Index) {
	t.Helper()
	fx := newFixture(t, amName)
	fx.load(t, confN)
	return fx, fx.build(t, amName)
}

// TestMultiSearchMatchesSolo: the batched path must be byte-identical
// to per-query calls — mixed filtered and unfiltered queries, every heap
// policy — under every registered kernel (the group key pins one kernel
// per batch).
func TestMultiSearchMatchesSolo(t *testing.T) {
	for _, amName := range confAMs {
		t.Run(amName, func(t *testing.T) {
			_, ix := builtFixture(t, amName)
			qs, ks, preds := multiBatch()
			for _, kern := range vec.RegisteredKernelNames() {
				for _, heapPolicy := range []string{"n", "k"} {
					params := scanParams(kern, "heap", heapPolicy)
					multi, err := ix.(am.BatchIndex).MultiSearch(qs, ks, params, preds)
					if err != nil {
						t.Fatal(err)
					}
					for i := range qs {
						var solo []am.Result
						if preds[i] != nil {
							solo, err = ix.(am.FilteredIndex).SearchFiltered(qs[i], ks[i], params, preds[i])
						} else {
							solo, err = ix.Search(qs[i], ks[i], params)
						}
						if err != nil {
							t.Fatal(err)
						}
						assertSameResults(t, kern+"/heap="+heapPolicy, multi[i], solo)
					}
				}
			}
		})
	}
}

// TestOpenReloadsPersistedPages: Open on the written relation reloads the
// centroids and the codec's parameter pages (ivfpq's codebooks,
// ivfsq8's grid) and answers byte-identically, plain and filtered.
func TestOpenReloadsPersistedPages(t *testing.T) {
	opens := map[string]am.BuildFunc{"ivfflat": ivfflat.Open, "ivfpq": ivfpq.Open, "ivfsq8": ivfsq8.Open}
	for _, amName := range confAMs {
		t.Run(amName, func(t *testing.T) {
			fx, built := builtFixture(t, amName)
			reopened, err := opens[amName](fx.ctx)
			if err != nil {
				t.Fatal(err)
			}
			if reopened.AM() != amName {
				t.Fatalf("reopened AM %q", reopened.AM())
			}
			for _, kern := range vec.RegisteredKernelNames() {
				params := scanParams(kern)
				for _, pred := range []am.Predicate{nil, confPred} {
					want := soloAll(t, built, params, pred)
					got := soloAll(t, reopened, params, pred)
					for i := range want {
						assertSameResults(t, kern, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestDeleteMaintainChurn: tombstoned entries vanish from results
// immediately; Maintain reclaims them and results stay the same.
func TestDeleteMaintainChurn(t *testing.T) {
	for _, amName := range confAMs {
		t.Run(amName, func(t *testing.T) {
			fx, ix := builtFixture(t, amName)
			mix := ix.(am.MutableIndex)
			params := map[string]string{"nprobe": "10"}
			q := confQuery(400)
			before, err := ix.Search(q, 5, params)
			if err != nil {
				t.Fatal(err)
			}
			// Delete the current top result from heap and index.
			victim := before[0].TID
			vi := -1
			for i, tid := range fx.tids {
				if tid == victim {
					vi = i
				}
			}
			found, err := mix.Delete(fx.vecs[vi], victim)
			if err != nil || !found {
				t.Fatalf("Delete = (%v, %v)", found, err)
			}
			if ok, err := fx.tbl.Delete(victim); err != nil || !ok {
				t.Fatalf("heap Delete = (%v, %v)", ok, err)
			}
			if found, err := mix.Delete(fx.vecs[vi], victim); err != nil || found {
				t.Fatalf("second Delete = (%v, %v), want a no-op", found, err)
			}
			if got := mix.DeadCount(); got != 1 {
				t.Fatalf("DeadCount = %d, want 1", got)
			}
			after, err := ix.Search(q, 5, params)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range after {
				if r.TID == victim {
					t.Fatal("deleted TID still surfaced")
				}
			}
			if removed, err := mix.Maintain(); err != nil || removed != 1 {
				t.Fatalf("Maintain = (%d, %v), want 1 removed", removed, err)
			}
			if got := mix.DeadCount(); got != 0 {
				t.Fatalf("post-Maintain DeadCount = %d", got)
			}
			again, err := ix.Search(q, 5, params)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "post-maintain", again, after)
		})
	}
}

// TestHeapKRanksByDistanceThenID: under heap=k the final-distance codecs
// rank through a bounded TopK(k), so equal distances order by TID —
// ivfpq included, which used to ignore the knob — while the distance
// sequence equals the default size-n collector's.
func TestHeapKRanksByDistanceThenID(t *testing.T) {
	for _, amName := range []string{"ivfflat", "ivfpq"} {
		t.Run(amName, func(t *testing.T) {
			_, ix := builtFixture(t, amName)
			for qi := 0; qi < confQueries; qi++ {
				collected, err := ix.Search(confQuery(qi), confK, scanParams("ref"))
				if err != nil {
					t.Fatal(err)
				}
				bounded, err := ix.Search(confQuery(qi), confK, scanParams("ref", "heap", "k"))
				if err != nil {
					t.Fatal(err)
				}
				if len(bounded) != len(collected) {
					t.Fatalf("q%d: heap=k returned %d rows, collector %d", qi, len(bounded), len(collected))
				}
				for j := range bounded {
					if bounded[j].Dist != collected[j].Dist {
						t.Fatalf("q%d rank %d: heap=k distance %v, collector %v", qi, j, bounded[j].Dist, collected[j].Dist)
					}
					if j > 0 && !minheap.Less(item(bounded[j-1]), item(bounded[j])) {
						t.Fatalf("q%d rank %d: %v not after %v in (Dist, ID) order", qi, j, bounded[j], bounded[j-1])
					}
				}
			}
		})
	}
}

func item(r am.Result) minheap.Item {
	return minheap.Item{ID: int64(r.TID.Blk)<<16 | int64(r.TID.Off), Dist: r.Dist}
}

// TestSQ8ThreadsMatchSerial: ivfsq8 honours threads, and the parallel
// scan returns the serial bytes — its k·β heap orders by (Dist, ID),
// so the workers' interleaving cannot change the candidate set.
func TestSQ8ThreadsMatchSerial(t *testing.T) {
	_, ix := builtFixture(t, "ivfsq8")
	for _, kern := range vec.RegisteredKernelNames() {
		for qi := 0; qi < confQueries; qi++ {
			serial, err := ix.Search(confQuery(qi), confK, scanParams(kern, "threads", "1"))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := ix.Search(confQuery(qi), confK, scanParams(kern, "threads", "2"))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, kern, parallel, serial)
		}
	}
	if _, err := ix.Search(confQuery(0), confK, scanParams("ref", "threads", "two")); err == nil {
		t.Fatal("malformed threads accepted")
	}
}
