// Package ivfsq8 implements a PASE-style IVF index with SQ8 scalar
// quantization on the PostgreSQL substrate: the shared IVF skeleton
// (internal/pase/ivf) with the SQ8 codec. Each data entry stores the
// vector as d uint8 codes on a per-dimension [min, max] grid trained at
// build time, so data pages hold roughly 4× more tuples per page. Search
// scores codes with the kernel's asymmetric uint8-vs-float32 distance —
// plain scans in the decomposed form (a uint8 dot product against stored
// code norms, one page per kernel call), predicate paths per entry in
// the direct form — keeps k·β candidates (SET sq8_rerank), and re-ranks
// them against the full-precision heap tuples before returning k — the
// classic SQ8 + refinement recipe, here paying PostgreSQL's tuple
// re-fetch cost for the refinement step.
//
// The trained per-dimension min/step arrays persist on a chain of stats
// pages between the meta page and the centroid pages (full-precision
// centroids — probe selection is not quantized).
package ivfsq8

import (
	"encoding/binary"
	"fmt"
	"math"

	"vecstudy/internal/pase"
	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

func init() {
	am.Register("ivfsq8", Build)
}

var method = &ivf.Method{
	Name:      "ivfsq8",
	NewCodec:  func(dim int) ivf.Codec { return &sq8Codec{dim: dim} },
	Params:    ivf.ParamChainFirst,
	DistTimer: "fvec_L2sqr",
	Rerank:    "sq8_rerank",
}

// Index is a built IVF_SQ8 index.
type Index struct{ *ivf.Index }

// Build trains centroids and the SQ8 grid over the table's vectors and
// bulk-loads every row as a code. Options: clusters (c), sample_ratio
// (sr), seed — the same knobs as ivfflat.
func Build(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Build(ctx, method)
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// Open re-binds an existing index relation, reloading the centroids and
// the persisted SQ8 grid from the stats pages.
func Open(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Open(ctx, method)
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// data payload layout: the entry's code norm Σ(Step_i·c_i)² as a
// little-endian float32 (4), then the d code bytes. The stored norm is
// the code-side term of the decomposed asymmetric distance
// (vec.SQ8.DecomposeQuery): computing it once at encode time lets plain
// scans score each candidate with a single uint8 dot product instead of
// the full subtract-square form. It is derived purely from the code and
// the trained grid with fixed scalar arithmetic (vec.SQ8.CodeNorm), so it
// is kernel-independent like the rest of the on-disk layout.
const normSize = 4

// statsChunkSize bounds one stats item: the min/step arrays are split
// into page-item-sized chunks so any dimensionality fits the page size.
const statsChunkSize = 4096

type sq8Codec struct {
	dim int
	sq  *vec.SQ8
}

// Train fits the grid to every build row. Assignment never reads it:
// buckets come from the full-precision vector.
func (c *sq8Codec) Train(_ map[string]string, rows []float32, n int, _ []float32) error {
	t := vec.NewSQ8Trainer(c.dim)
	for i := 0; i < n; i++ {
		t.Observe(rows[i*c.dim : (i+1)*c.dim])
	}
	c.sq = t.Finish()
	return nil
}

// Save serializes the grid as one byte stream — d mins then d steps,
// little-endian float32 — split into stats-page items.
func (c *sq8Codec) Save() ([]uint32, [][]byte) {
	raw := make([]byte, 8*c.dim)
	pase.PutFloat32s(raw, c.sq.Min)
	pase.PutFloat32s(raw[4*c.dim:], c.sq.Step)
	var items [][]byte
	for off := 0; off < len(raw); off += statsChunkSize {
		items = append(items, raw[off:min(off+statsChunkSize, len(raw))])
	}
	return nil, items
}

func (c *sq8Codec) Load(_ []uint32, read func(int) ([][]byte, error)) error {
	want := 8 * c.dim
	items, err := read((want + statsChunkSize - 1) / statsChunkSize)
	if err != nil {
		return err
	}
	var raw []byte
	for _, it := range items {
		raw = append(raw, it...)
	}
	if len(raw) != want {
		return fmt.Errorf("pase/ivfsq8: stats chain holds %d bytes, want %d", len(raw), want)
	}
	c.sq = &vec.SQ8{
		Min:  append([]float32(nil), pase.Float32View(raw[:4*c.dim])...),
		Step: append([]float32(nil), pase.Float32View(raw[4*c.dim:])...),
	}
	return nil
}

func (c *sq8Codec) EntrySize() int { return normSize + c.dim }

// Encode writes the code on the trained grid (never retrained —
// out-of-range values clamp to the edge cells, the standard SQ8
// behaviour for drifting data) after its stored norm.
func (c *sq8Codec) Encode(dst []byte, x, _ []float32) {
	code := dst[normSize:]
	c.sq.Encode(x, code)
	binary.LittleEndian.PutUint32(dst, math.Float32bits(c.sq.CodeNorm(code)))
}

// NewScorer applies the query-side decomposition once per query: the
// same sequential transform for every path, so a query's w and ‖u‖² are
// bit-identical whether it runs solo or in a batch.
func (c *sq8Codec) NewScorer(kern vec.Kernel, query []float32) ivf.Scorer {
	s := &sq8Scorer{kern: kern, sq: c.sq, query: query, w: make([]float32, len(query))}
	s.unorm = c.sq.DecomposeQuery(query, s.w)
	return s
}

type sq8Scorer struct {
	kern  vec.Kernel
	sq    *vec.SQ8
	query []float32
	w     []float32
	unorm float32
}

func (*sq8Scorer) Bucket([]float32) {}

// Score scores one whole page per kernel call in the decomposed form:
// dist_i = ‖u‖² − 2·(w·c_i) + norm_i, with each entry's code norm read
// off the page where Encode stored it. The per-candidate kernel work is
// then a bare uint8 dot product — roughly a third of the direct
// subtract-square form. The reassembled distance rounds differently from
// the direct form ScoreOne uses, which only moves candidates at the k·β
// selection boundary; the full-precision re-rank makes the returned
// distances exact either way.
func (s *sq8Scorer) Score(r *ivf.Run, out []float32) {
	s.kern.DotSQ8Batch(s.w, r.Suffixes(normSize), out)
	for i, p := range r.Payloads {
		norm := math.Float32frombits(binary.LittleEndian.Uint32(p))
		out[i] = s.unorm - 2*out[i] + norm
	}
}

// ScoreOne is the direct asymmetric distance, used on predicate paths.
func (s *sq8Scorer) ScoreOne(payload []byte) float32 {
	return s.kern.L2SqrSQ8(s.query, payload[normSize:], s.sq)
}
