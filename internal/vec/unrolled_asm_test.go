package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The unrolled kernel's methods run assembly on amd64 (and its Go
// bodies elsewhere); the Go bodies are the definition. These tests
// demand the two agree bit for bit, pair by pair, through every method
// — counting NaN == NaN as a match, since the batched L2 forms subtract
// in the transposed order and x86 propagates the first operand's NaN
// payload.

// sameBits reports whether a and b are the same float32 bits, or both
// NaN.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// asmParityValue draws one coordinate of a d-dimensional input: mostly
// magnitudes spread log-uniformly over 1e-6..1e6 with either sign, plus
// ±0 and subnormals. About one coordinate in 2d is a NaN or a value
// whose square overflows to +Inf, so a vector holds ~0.5 of them and
// most pairs still reach the comparison with finite sums.
func asmParityValue(rng *rand.Rand, d int) float32 {
	sign := float32(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	if rng.Intn(2*d) == 0 {
		if rng.Intn(2) == 0 {
			return float32(math.NaN())
		}
		return sign * float32(1e19+rng.Float64()*3e38)
	}
	switch r := rng.Intn(100); {
	case r < 5:
		return sign * 0
	case r < 10:
		return sign * math.Float32frombits(uint32(1+rng.Intn(1<<23-1)))
	default:
		return sign * float32(math.Pow(10, rng.Float64()*12-6))
	}
}

// asmParityCase is one input set for checkUnrolledParity: a query (or
// SQ8 weight vector) q, m rows and m codes (both longer than d, so the
// kernel must reslice), n B rows for the NT forms, and an SQ8 grid.
type asmParityCase struct {
	d, m, n int
	q       []float32
	rows    [][]float32
	a       []float32 // the rows, flattened m×d for L2SqrNT
	b       []float32 // n×d
	codes   [][]byte
	sq      *SQ8
}

// newAsmParityCase fills a case from next (coordinates) and nextByte
// (codes); extra elements trail every row and code past d.
func newAsmParityCase(d, m, n, extra int, next func() float32, nextByte func() byte) *asmParityCase {
	c := &asmParityCase{d: d, m: m, n: n}
	vec := func(l int) []float32 {
		v := make([]float32, l)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	c.q = vec(d)
	c.rows = make([][]float32, m)
	c.codes = make([][]byte, m)
	for i := range c.rows {
		c.rows[i] = vec(d + extra)
		c.a = append(c.a, c.rows[i][:d]...)
		c.codes[i] = make([]byte, d+extra)
		for j := range c.codes[i] {
			c.codes[i][j] = nextByte()
		}
	}
	c.b = vec(n * d)
	c.sq = &SQ8{Min: vec(d), Step: vec(d)}
	return c
}

// checkUnrolledParity runs every unrolledKernel method on c and
// compares each output with the Go body for the same pair.
func checkUnrolledParity(t *testing.T, c *asmParityCase) {
	t.Helper()
	k := unrolledKernel{}
	d, m, n := c.d, c.m, c.n
	fail := func(form string, i, j int, got, want float32) {
		t.Helper()
		t.Fatalf("d=%d m=%d n=%d %s[%d,%d]: asm %#08x (%g), Go %#08x (%g)", d, m, n, form, i, j,
			math.Float32bits(got), got, math.Float32bits(want), want)
	}

	for i, r := range c.rows {
		if got, want := k.L2Sqr(c.q, r[:d]), l2sqrUnrolledGo(c.q, r[:d]); !sameBits(got, want) {
			fail("L2Sqr", i, 0, got, want)
		}
		if got, want := k.L2SqrSQ8(c.q, c.codes[i], c.sq), l2sqrSQ8UnrolledGo(c.q, c.codes[i], c.sq.Min, c.sq.Step); !sameBits(got, want) {
			fail("L2SqrSQ8", i, 0, got, want)
		}
	}

	out := make([]float32, m)
	k.L2SqrBatch(c.q, c.rows, out)
	for i, r := range c.rows {
		if want := l2sqrUnrolledGo(c.q, r[:d]); !sameBits(out[i], want) {
			fail("L2SqrBatch", i, 0, out[i], want)
		}
	}
	k.L2SqrSQ8Batch(c.q, c.codes, c.sq, out)
	for i, code := range c.codes {
		if want := l2sqrSQ8UnrolledGo(c.q, code, c.sq.Min, c.sq.Step); !sameBits(out[i], want) {
			fail("L2SqrSQ8Batch", i, 0, out[i], want)
		}
	}
	k.DotSQ8Batch(c.q, c.codes, out)
	for i, code := range c.codes {
		if want := dotSQ8UnrolledGo(c.q, code); !sameBits(out[i], want) {
			fail("DotSQ8Batch", i, 0, out[i], want)
		}
	}

	nt := make([]float32, m*n)
	ntRows := make([]float32, m*n)
	k.L2SqrNT(c.a, m, d, c.b, n, nt)
	k.L2SqrNTRows(c.rows, d, c.b, n, ntRows)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := l2sqrUnrolledGo(c.a[i*d:(i+1)*d], c.b[j*d:(j+1)*d])
			if !sameBits(nt[i*n+j], want) {
				fail("L2SqrNT", i, j, nt[i*n+j], want)
			}
			if !sameBits(ntRows[i*n+j], want) {
				fail("L2SqrNTRows", i, j, ntRows[i*n+j], want)
			}
		}
	}
}

// TestUnrolledAsmMatchesGo sweeps every dimension 1..1024 with row
// counts that are and are not multiples of four, on the adversarial
// value mix of asmParityValue. Over a third of the pairs hold no NaN
// or overflow, so NaN == NaN and +Inf cannot hide a wrong lane.
func TestUnrolledAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nextByte := func() byte { return byte(rng.Intn(256)) }
	for d := 1; d <= 1024; d++ {
		next := func() float32 { return asmParityValue(rng, d) }
		m := 1 + d%11 // 1..11 rows: full four-row blocks plus 0–3 left over
		n := 1 + d%3
		checkUnrolledParity(t, newAsmParityCase(d, m, n, 1+d%5, next, nextByte))
	}
}

// FuzzUnrolledAsmParity feeds raw float32 bit patterns (every NaN,
// infinity and subnormal the fuzzer can reach) through checkUnrolledParity.
func FuzzUnrolledAsmParity(f *testing.F) {
	f.Add(uint16(8), uint8(4), []byte{0, 0, 128, 63, 0, 0, 0, 64, 1, 0, 0, 0, 0, 0, 128, 255})
	f.Add(uint16(13), uint8(5), []byte{255, 255, 127, 127, 0, 0, 192, 127, 0, 0, 0, 128})
	f.Add(uint16(1000), uint8(7), []byte{189, 55, 134, 53, 40, 107, 110, 73})
	f.Fuzz(func(t *testing.T, dim uint16, rows uint8, raw []byte) {
		if len(raw) < 4 {
			return
		}
		d := 1 + int(dim)%1024
		m := 1 + int(rows)%11
		pos := 0
		nextByte := func() byte {
			b := raw[pos%len(raw)]
			pos++
			return b
		}
		next := func() float32 {
			var w [4]byte
			for i := range w {
				w[i] = nextByte()
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		checkUnrolledParity(t, newAsmParityCase(d, m, 1+int(rows)%3, int(rows)%4, next, nextByte))
	})
}
