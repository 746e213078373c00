// Package ivfflat implements the PASE-style IVF_FLAT index access method
// on the PostgreSQL substrate: the shared IVF skeleton (internal/pase/ivf)
// with the flat codec, whose bucket entries store the raw vector and are
// scored by exact kernel distance. Scan distances are final, so ranking
// follows PASE: a size-n collector heap (RC#6), or a size-k heap under
// SET heap = k. See package ivf for the page layout and the other
// faithfully reproduced root causes.
package ivfflat

import (
	"vecstudy/internal/pase"
	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

func init() {
	am.Register("ivfflat", Build)
}

var method = &ivf.Method{
	Name:      "ivfflat",
	NewCodec:  func(dim int) ivf.Codec { return flatCodec{dim: dim} },
	DistTimer: "fvec_L2sqr",
}

// Index is a built PASE IVF_FLAT index.
type Index struct{ *ivf.Index }

// Build trains centroids over the table's vectors and bulk-loads every
// row into its bucket. Options: clusters (c), sample_ratio (sr),
// distance_type (0=L2), seed.
func Build(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Build(ctx, method)
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// Open re-binds an existing index relation (e.g., after restart).
func Open(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Open(ctx, method)
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// flatCodec stores each vector verbatim (dim float32s at a
// MAXALIGN-compatible offset) and has no trained parameters.
type flatCodec struct{ dim int }

func (flatCodec) Train(map[string]string, []float32, int, []float32) error { return nil }
func (flatCodec) Save() ([]uint32, [][]byte)                               { return nil, nil }
func (flatCodec) Load([]uint32, func(int) ([][]byte, error)) error         { return nil }
func (c flatCodec) EntrySize() int                                         { return 4 * c.dim }
func (flatCodec) Encode(dst []byte, x, _ []float32)                        { pase.PutFloat32s(dst, x) }

func (flatCodec) NewScorer(kern vec.Kernel, query []float32) ivf.Scorer {
	return flatScorer{kern, query}
}

type flatScorer struct {
	kern  vec.Kernel
	query []float32
}

func (flatScorer) Bucket([]float32) {}

// Score is one L2SqrNTRows call with the page's tuples as the A rows —
// zero-copy views into the pinned page — and the query as the single B
// row: A rows drive the unroll, so the independent accumulator chains
// engage on every page. Each (tuple, query) chain is bitwise equal to
// the kernel's L2Sqr(query, tuple) (IEEE subtraction is sign-symmetric
// and x·x == (−x)·(−x)), so Score and ScoreOne agree exactly.
func (s flatScorer) Score(r *ivf.Run, out []float32) {
	s.kern.L2SqrNTRows(r.Rows(len(s.query)), len(s.query), s.query, 1, out)
}

func (s flatScorer) ScoreOne(payload []byte) float32 {
	return s.kern.L2Sqr(s.query, pase.Float32View(payload))
}
