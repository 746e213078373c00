package vec

// The unrolled kernel's amd64 bodies (kernel_unrolled_amd64.s). SSE2 is
// part of the amd64 baseline, so there is no feature probe: every amd64
// host runs these. Each XMM accumulator holds four of the Go body's
// chains — lanes 0–3 and 4–7 of the L2 forms, lanes 0–3 of the SQ8
// forms — and packed SUBPS/MULPS/ADDPS round each lane exactly as the
// scalar operations do, so the results are the bits of the Go bodies in
// kernel.go (unrolled_asm_test.go checks this). The wrappers reslice
// before taking element addresses, so a short argument panics here just
// as it would in the Go body.

// l2sqrSSE is l2sqrUnrolledGo over n ≥ 1 elements.
func l2sqrSSE(x, y *float32, n int) float32

// l2sqr4SSE is l2sqrUnrolledGo(x_r, y) for the four rows x0..x3 against
// one shared y, all n ≥ 1 elements long: eight accumulators in flight.
func l2sqr4SSE(y, x0, x1, x2, x3 *float32, n int) (d0, d1, d2, d3 float32)

// l2sqrSQ8SSE is l2sqrSQ8UnrolledGo over n ≥ 1 elements.
func l2sqrSQ8SSE(q *float32, code *byte, mn, st *float32, n int) float32

// dotSQ8SSE is dotSQ8UnrolledGo over n ≥ 1 elements.
func dotSQ8SSE(w *float32, code *byte, n int) float32

// dotSQ8x4SSE is dotSQ8UnrolledGo(w, c_r) for the four codes c0..c3,
// all n ≥ 1 elements long.
func dotSQ8x4SSE(w *float32, c0, c1, c2, c3 *byte, n int) (d0, d1, d2, d3 float32)

func l2sqrUnrolled(x, y []float32) float32 {
	n := len(x)
	y = y[:n]
	if n == 0 {
		return 0
	}
	return l2sqrSSE(&x[0], &y[0], n)
}

// l2sqrUnrolled4 requires len(x_r) == len(y) for every row.
func l2sqrUnrolled4(y, x0, x1, x2, x3 []float32) (float32, float32, float32, float32) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	if n == 0 {
		return 0, 0, 0, 0
	}
	return l2sqr4SSE(&y[0], &x0[0], &x1[0], &x2[0], &x3[0], n)
}

func l2sqrSQ8Unrolled(q []float32, code []byte, mn, st []float32) float32 {
	n := len(q)
	code, mn, st = code[:n], mn[:n], st[:n]
	if n == 0 {
		return 0
	}
	return l2sqrSQ8SSE(&q[0], &code[0], &mn[0], &st[0], n)
}

func dotSQ8Unrolled(w []float32, code []byte) float32 {
	n := len(w)
	code = code[:n]
	if n == 0 {
		return 0
	}
	return dotSQ8SSE(&w[0], &code[0], n)
}

// dotSQ8Unrolled4 requires len(c_r) == len(w) for every code.
func dotSQ8Unrolled4(w []float32, c0, c1, c2, c3 []byte) (float32, float32, float32, float32) {
	n := len(w)
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	if n == 0 {
		return 0, 0, 0, 0
	}
	return dotSQ8x4SSE(&w[0], &c0[0], &c1[0], &c2[0], &c3[0], n)
}
