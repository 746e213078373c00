package ivf_test

import (
	"math/rand"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/storage"

	_ "vecstudy/internal/pase/ivfflat"
	_ "vecstudy/internal/pase/ivfpq"
	_ "vecstudy/internal/pase/ivfsq8"
)

// The fixture shared by the IVF access-method suites: a heap of
// small-integer vectors (so equal distances are common and every
// tie-breaking rule is exercised) behind a fresh buffer pool, with each
// access method's WITH options.

const (
	confDim     = 32
	confN       = 600
	confQueries = 6
	confK       = 10
	confNProbe  = "4"
	tableRel    = 1
	indexRel    = 2
)

var confSchema = heap.Schema{Cols: []heap.Column{
	{Name: "id", Type: heap.Int4},
	{Name: "vec", Type: heap.Float4Array},
}}

// confOpts are the WITH options per access method: ten buckets over the
// whole table, and for PQ a codebook small enough for 600 rows.
var confOpts = map[string]map[string]string{
	"ivfflat": {"clusters": "10", "sample_ratio": "1", "seed": "1"},
	"ivfpq":   {"clusters": "10", "sample_ratio": "1", "seed": "1", "m": "8", "ksub": "16"},
	"ivfsq8":  {"clusters": "10", "sample_ratio": "1", "seed": "1"},
}

var confAMs = []string{"ivfflat", "ivfpq", "ivfsq8"}

type fixture struct {
	pool *buffer.Pool
	tbl  *heap.Table
	vecs [][]float32
	tids []heap.TID
	ctx  *am.BuildContext
}

// intVec draws a vector of small integers: integer coordinates make
// equal distances common, so every tie-breaking rule is exercised.
func intVec(rng *rand.Rand) []float32 {
	v := make([]float32, confDim)
	for j := range v {
		v[j] = float32(rng.Intn(5) - 2)
	}
	return v
}

// newFixture returns an empty heap behind a fresh buffer pool and the
// build context of amName's index over it; load adds rows.
func newFixture(t testing.TB, amName string) *fixture {
	t.Helper()
	pool, err := buffer.NewPool(4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []buffer.RelID{tableRel, indexRel} {
		if err := pool.Register(rel, storage.NewMemStore(4096)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := heap.New(pool, tableRel, confSchema)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{pool: pool, tbl: tbl}
	fx.ctx = &am.BuildContext{
		Pool: pool, Rel: indexRel, Table: tbl, VecCol: 1, Dim: confDim,
		Opts: confOpts[amName],
	}
	return fx
}

func (fx *fixture) load(t testing.TB, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(17 + int64(len(fx.vecs))))
	for i := 0; i < n; i++ {
		v := intVec(rng)
		if i%50 == 7 && len(fx.vecs) > 0 {
			v = append([]float32(nil), fx.vecs[len(fx.vecs)-1]...) // exact duplicates tie on every path
		}
		tid, err := fx.tbl.Insert([]any{int32(len(fx.vecs)), v})
		if err != nil {
			t.Fatal(err)
		}
		fx.vecs = append(fx.vecs, v)
		fx.tids = append(fx.tids, tid)
	}
}

func (fx *fixture) build(t testing.TB, amName string) am.Index {
	t.Helper()
	fn, err := am.Lookup(amName)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := fn(fx.ctx)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func confQuery(i int) []float32 {
	return intVec(rand.New(rand.NewSource(int64(1000 + i))))
}

// confPred is a pure predicate over the TID (no heap access), so it is
// safe on every path, concurrent ones included.
func confPred(tid heap.TID) (bool, error) {
	return (int(tid.Blk)*7+int(tid.Off))%3 != 0, nil
}

func scanParams(kernel string, extra ...string) map[string]string {
	p := map[string]string{"nprobe": confNProbe, "distance_kernel": kernel}
	for i := 0; i+1 < len(extra); i += 2 {
		p[extra[i]] = extra[i+1]
	}
	return p
}

func soloAll(t testing.TB, ix am.Index, params map[string]string, pred am.Predicate) [][]am.Result {
	t.Helper()
	out := make([][]am.Result, confQueries)
	for i := range out {
		var err error
		if pred != nil {
			out[i], err = ix.(am.FilteredIndex).SearchFiltered(confQuery(i), confK, params, pred)
		} else {
			out[i], err = ix.Search(confQuery(i), confK, params)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// multiBatch is the 8-query MultiSearch case: alternating unfiltered
// and filtered queries with k varying per query.
func multiBatch() ([][]float32, []int, []am.Predicate) {
	const B = 8
	qs := make([][]float32, B)
	ks := make([]int, B)
	preds := make([]am.Predicate, B)
	for i := range qs {
		qs[i] = confQuery(100 + i)
		ks[i] = 3 + i
		if i%2 == 1 {
			preds[i] = confPred
		}
	}
	return qs, ks, preds
}
