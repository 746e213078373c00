//go:build !amd64

package vec

// Without an assembly body the unrolled kernel runs its Go bodies; the
// four-row forms are four solo calls.

func l2sqrUnrolled(x, y []float32) float32 { return l2sqrUnrolledGo(x, y) }

func l2sqrUnrolled4(y, x0, x1, x2, x3 []float32) (float32, float32, float32, float32) {
	return l2sqrUnrolledGo(x0, y), l2sqrUnrolledGo(x1, y), l2sqrUnrolledGo(x2, y), l2sqrUnrolledGo(x3, y)
}

func l2sqrSQ8Unrolled(q []float32, code []byte, mn, st []float32) float32 {
	return l2sqrSQ8UnrolledGo(q, code, mn, st)
}

func dotSQ8Unrolled(w []float32, code []byte) float32 { return dotSQ8UnrolledGo(w, code) }

func dotSQ8Unrolled4(w []float32, c0, c1, c2, c3 []byte) (float32, float32, float32, float32) {
	return dotSQ8UnrolledGo(w, c0), dotSQ8UnrolledGo(w, c1), dotSQ8UnrolledGo(w, c2), dotSQ8UnrolledGo(w, c3)
}
