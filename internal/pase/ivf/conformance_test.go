//go:build amd64

// The conformance suite pins every IVF access method's observable
// output — result TIDs, the exact float32 bits of every distance, and
// the index footprint — to SHA-256 digests recorded from the original
// per-AM implementations. It talks to the access methods only through
// the am registry and interfaces, so any rewrite of the IVF machinery
// must reproduce these bytes under every kernel and scan path.
//
// amd64 only: on arm64 the Go compiler fuses multiply-adds, so the
// portable kernels round differently there and the digests would not
// transfer.
package ivf_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

// digest hashes result lists followed by the index footprint.
func digest(t testing.TB, ix am.Index, lists ...[]am.Result) string {
	t.Helper()
	h := sha256.New()
	var b [12]byte
	for _, lst := range lists {
		binary.LittleEndian.PutUint32(b[:4], uint32(len(lst)))
		h.Write(b[:4])
		for _, r := range lst {
			binary.LittleEndian.PutUint32(b[0:], r.TID.Blk)
			binary.LittleEndian.PutUint32(b[4:], uint32(r.TID.Off))
			binary.LittleEndian.PutUint32(b[8:], math.Float32bits(r.Dist))
			h.Write(b[:])
		}
	}
	size, err := ix.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[:8], uint64(size))
	h.Write(b[:8])
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// conformanceKernels are the kernels every case runs under: avx2 joins
// only where vec registered it (the CPU has AVX2 and FMA).
func conformanceKernels() []string {
	out := []string{"ref", "unrolled"}
	for _, n := range vec.RegisteredKernelNames() {
		if n == "avx2" {
			out = append(out, n)
		}
	}
	return out
}

// conformanceDigests computes every case's digest for one access method.
func conformanceDigests(t *testing.T, amName string) map[string]string {
	fx, ix := builtFixture(t, amName)
	got := make(map[string]string)
	for _, kern := range conformanceKernels() {
		key := func(path string) string { return fmt.Sprintf("%s/%s/%s", amName, kern, path) }
		got[key("search")] = digest(t, ix, soloAll(t, ix, scanParams(kern), nil)...)
		if amName == "ivfflat" {
			got[key("heap_k")] = digest(t, ix, soloAll(t, ix, scanParams(kern, "heap", "k"), nil)...)
		}
		got[key("threads2")] = digest(t, ix, soloAll(t, ix, scanParams(kern, "threads", "2"), nil)...)
		got[key("filtered")] = digest(t, ix, soloAll(t, ix, scanParams(kern), confPred)...)
		qs, ks, preds := multiBatch()
		multi, err := ix.(am.BatchIndex).MultiSearch(qs, ks, scanParams(kern), preds)
		if err != nil {
			t.Fatal(err)
		}
		got[key("multi8")] = digest(t, ix, multi...)
	}

	// Delete 10% of the rows from index and heap, compact, search again.
	mix := ix.(am.MutableIndex)
	for i := 3; i < confN; i += 10 {
		found, err := mix.Delete(fx.vecs[i], fx.tids[i])
		if err != nil || !found {
			t.Fatalf("Delete row %d = (%v, %v)", i, found, err)
		}
		if ok, err := fx.tbl.Delete(fx.tids[i]); err != nil || !ok {
			t.Fatalf("heap Delete row %d = (%v, %v)", i, ok, err)
		}
	}
	if removed, err := mix.Maintain(); err != nil || removed != confN/10 {
		t.Fatalf("Maintain = (%d, %v), want %d", removed, err, confN/10)
	}
	for _, kern := range conformanceKernels() {
		got[fmt.Sprintf("%s/%s/deleted", amName, kern)] = digest(t, ix, soloAll(t, ix, scanParams(kern), nil)...)
	}
	return got
}

func TestConformanceDigests(t *testing.T) {
	for _, amName := range confAMs {
		t.Run(amName, func(t *testing.T) {
			got := conformanceDigests(t, amName)
			for key, g := range got {
				want, ok := goldenDigests[key]
				if !ok {
					t.Errorf("no golden digest for %s (got %q)", key, g)
					continue
				}
				if g != want {
					t.Errorf("%s: digest %s, want %s", key, g, want)
				}
			}
		})
	}
}
