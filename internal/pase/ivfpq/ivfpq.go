// Package ivfpq implements the PASE-style IVF_PQ index access method on
// the PostgreSQL substrate: the shared IVF skeleton (internal/pase/ivf)
// with the PQ codec, whose bucket entries store the M-byte PQ code of
// the vector's residual against its bucket centroid. The trained
// codebooks live on pages after the centroid pages.
//
// The paper's RC#7 lives here: PASE computes the query-to-codeword
// distance table from scratch for every probed bucket (a m×c_pq×(d/m)
// scalar-loop computation), while the specialized engine assembles it
// from terms cached at train time. ADC distances are final, so ranking
// follows PASE's size-n collector (RC#6) or a size-k heap under SET
// heap = k; RC#1/RC#2/RC#3 apply as in the ivfflat sibling.
package ivfpq

import (
	"fmt"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/pase"
	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pq"
	"vecstudy/internal/vec"
)

func init() {
	am.Register("ivfpq", Build)
}

var method = &ivf.Method{
	Name:        "ivfpq",
	NewCodec:    func(dim int) ivf.Codec { return &pqCodec{dim: dim} },
	Params:      ivf.ParamPagesLast,
	DistTimer:   "adc-scan",
	BucketTimer: "precomputed-table",
}

// Index is a built PASE IVF_PQ index.
type Index struct{ *ivf.Index }

// Build trains the coarse and product quantizers over the table and
// bulk-loads the codes. Options: clusters, sample_ratio, m, ksub, seed.
func Build(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Build(ctx, method)
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// Open re-binds an existing index relation, reloading the codebooks.
func Open(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Open(ctx, method)
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// pqCodec encodes residuals with a product quantizer trained on the
// residuals of a build sample.
type pqCodec struct {
	dim   int
	quant *pq.Quantizer
}

func (c *pqCodec) Train(opts map[string]string, rows []float32, n int, centroids []float32) error {
	m, err := pase.OptInt(opts, "m", 16)
	if err != nil {
		return err
	}
	ksub, err := pase.OptInt(opts, "ksub", 256)
	if err != nil {
		return err
	}
	seed, err := pase.OptInt(opts, "seed", 0)
	if err != nil {
		return err
	}
	d := c.dim
	if m <= 0 || d%m != 0 {
		return fmt.Errorf("pase/ivfpq: m=%d must divide dim=%d", m, d)
	}
	if n < ksub {
		return fmt.Errorf("pase/ivfpq: %d rows too few for ksub=%d", n, ksub)
	}
	// PQ trained on residuals of a training subset, naive kernels.
	tn := min(n, 64*ksub)
	resid := make([]float32, tn*d)
	for i := 0; i < tn; i++ {
		row := rows[i*d : (i+1)*d]
		residual(resid[i*d:(i+1)*d], row, ivf.Nearest(row, centroids), centroids)
	}
	c.quant, err = pq.Train(resid, tn, d, pq.Config{
		M: m, KSub: ksub, Seed: int64(seed) + 1,
		UseGemm: false, Threads: 1, Flavor: kmeans.FlavorPASE,
	})
	return err
}

// residual writes x minus centroid cid into dst.
func residual(dst, x []float32, cid int, centroids []float32) {
	c := centroids[cid*len(x):]
	for j := range dst {
		dst[j] = x[j] - c[j]
	}
}

// Save persists M and KSub in the meta item and one codeword (dsub
// float32s) per parameter-page item, subspace-major.
func (c *pqCodec) Save() ([]uint32, [][]byte) {
	q := c.quant
	items := make([][]byte, 0, q.M*q.KSub)
	for m := 0; m < q.M; m++ {
		for j := 0; j < q.KSub; j++ {
			cw := make([]byte, 4*q.DSub)
			pase.PutFloat32s(cw, q.Codeword(m, j))
			items = append(items, cw)
		}
	}
	return []uint32{uint32(q.M), uint32(q.KSub)}, items
}

func (c *pqCodec) Load(words []uint32, read func(int) ([][]byte, error)) error {
	if len(words) != 2 || words[0] == 0 || c.dim%int(words[0]) != 0 {
		return fmt.Errorf("pase/ivfpq: bad codec words %v for dim %d", words, c.dim)
	}
	m, ksub := int(words[0]), int(words[1])
	q := &pq.Quantizer{D: c.dim, M: m, KSub: ksub, DSub: c.dim / m}
	items, err := read(m * ksub)
	if err != nil {
		return err
	}
	if len(items) != m*ksub {
		return fmt.Errorf("pase/ivfpq: codebook pages hold %d codewords, want %d", len(items), m*ksub)
	}
	for _, it := range items {
		q.Codebooks = append(q.Codebooks, pase.Float32View(it)...)
	}
	c.quant = q
	return nil
}

func (c *pqCodec) EntrySize() int { return c.quant.M }

func (c *pqCodec) Encode(dst []byte, x, centroid []float32) {
	resid := make([]float32, c.dim)
	residual(resid, x, 0, centroid)
	c.quant.Encode(resid, dst)
}

func (c *pqCodec) NewScorer(_ vec.Kernel, query []float32) ivf.Scorer {
	q := c.quant
	return &pqScorer{quant: q, query: query, tab: make([]float32, q.M*q.KSub), resid: make([]float32, c.dim)}
}

// pqScorer holds one query's distance table for the current bucket.
type pqScorer struct {
	quant *pq.Quantizer
	query []float32
	tab   []float32 // M×KSub query-to-codeword distances
	resid []float32
}

// Bucket rebuilds the query-to-codeword distance table from scratch
// (RC#7): residual against the bucket's coarse centroid, then the naive
// sub-quantizer table. The table depends only on (query, bucket), so a
// multi-query probe builds it once per probing query per bucket with
// arithmetic identical to the solo scan.
func (s *pqScorer) Bucket(centroid []float32) {
	residual(s.resid, s.query, 0, centroid)
	s.quant.DistanceTableNaive(s.resid, s.tab)
}

func (s *pqScorer) Score(r *ivf.Run, out []float32) {
	for i, code := range r.Payloads {
		out[i] = s.ScoreOne(code)
	}
}

// ScoreOne sums the code's table entries (asymmetric distance).
func (s *pqScorer) ScoreOne(code []byte) float32 {
	ksub := s.quant.KSub
	var dist float32
	for m := 0; m < s.quant.M; m++ {
		dist += s.tab[m*ksub+int(code[m])]
	}
	return dist
}
