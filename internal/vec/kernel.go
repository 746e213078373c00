// Kernel dispatch: every distance computation in the engine flows
// through one of the registered Kernel implementations. The paper's
// RC#5 shows the distance kernel dominating every PostgreSQL search
// path; this file gives the codebase exactly one seam to optimize it.
//
// Three implementations register here:
//
//   - "ref": the PASE-style scalar baseline (fvec_L2sqr_ref). Its solo
//     form is one sequential accumulator chain, and its batched forms
//     (blas.L2SqrNT/L2SqrNTRows) are proven bit-equal to that chain per
//     pair. It is the parity oracle for tests and the fixed kernel for
//     paths that must be session-independent (bucket assignment).
//   - "unrolled": the default. Eight independent accumulator chains per
//     pair hide FP add latency. On amd64 the chains run as the lanes of
//     two SSE2 registers (kernel_unrolled_amd64.s, no CPUID probe: SSE2
//     is the amd64 baseline); elsewhere the Go bodies in this file run.
//     Both give the same bits.
//   - "avx2": Go assembly under an amd64 build tag with a runtime CPUID
//     feature check (see kernel_avx2_amd64.go); on other platforms or
//     older CPUs the name resolves to the default kernel.
//
// The parity contract is per kernel, not across kernels: for any
// kernel K, K's batched forms (L2SqrBatch, L2SqrNT, L2SqrNTRows) are
// bit-for-bit equal, pair by pair, to K.L2Sqr — and K.L2Sqr(x, y) ==
// K.L2Sqr(y, x) bitwise (IEEE subtraction is sign-symmetric and
// x·x == (−x)·(−x)), which the multi-query probe path relies on when it
// transposes tuples and queries. Different kernels sum in different
// orders and so round differently; only "ref" is bit-equal to the
// sequential reference sum. The batch coalescer's byte-identical
// promise therefore holds under every kernel, because a batch group
// never mixes kernels (distance_kernel is part of the group key).
package vec

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vecstudy/internal/blas"
)

// Kernel is the distance-computation interface. All methods compute
// squared Euclidean (L2) distance; x, y, q and every row must share one
// dimensionality.
type Kernel interface {
	// Name reports the kernel's registered name.
	Name() string
	// L2Sqr returns ‖x−y‖².
	L2Sqr(x, y []float32) float32
	// L2SqrBatch writes ‖q−rows[i]‖² into out[i] for every row. rows may
	// alias pinned page memory; no row is retained or copied.
	L2SqrBatch(q []float32, rows [][]float32, out []float32)
	// L2SqrNT writes the full m×n matrix C[i*n+j] = ‖a_i − b_j‖² for
	// row-major A (m×k) and B (n×k).
	L2SqrNT(a []float32, m, k int, b []float32, n int, c []float32)
	// L2SqrNTRows is L2SqrNT with A supplied as a slice of row views
	// (zero-copy scoring of tuples that alias pinned pages).
	L2SqrNTRows(rows [][]float32, k int, b []float32, n int, c []float32)
	// L2SqrSQ8 returns the asymmetric ‖q − decode(code)‖² distance
	// between a full-precision query and an SQ8 byte-coded vector,
	// decoding on the fly against the quantizer's per-dimension grid.
	L2SqrSQ8(q []float32, code []byte, sq *SQ8) float32
	// L2SqrSQ8Batch writes L2SqrSQ8(q, codes[i], sq) into out[i] for
	// every code, bit-identically to the solo form (the same contract
	// L2SqrBatch has with L2Sqr). It is the direct page-batch form of the
	// asymmetric distance; plain index scans score pages through the
	// cheaper decomposed DotSQ8Batch + stored code norms instead, and the
	// parity suite anchors that decomposition against this form. codes
	// may alias pinned page memory; no code is retained or copied.
	L2SqrSQ8Batch(q []float32, codes [][]byte, sq *SQ8, out []float32)
	// DotSQ8Batch writes Σ_j w[j]·float32(codes[i][j]) into out[i] for
	// every code — the inner-product half of the decomposed asymmetric
	// distance (see SQ8.DecomposeQuery); the caller reassembles
	// ‖u‖² − 2·out[i] + norm_i from its precomputed norms. out[i] is a
	// pure function of (w, codes[i]): batch composition never affects a
	// lane, so any two walks that hand the same page of codes to the
	// same kernel score identically. Reduction order is per-kernel, as
	// with L2Sqr. codes may alias pinned page memory.
	DotSQ8Batch(w []float32, codes [][]byte, out []float32)
}

// DefaultKernelName is the kernel a session starts with.
const DefaultKernelName = "unrolled"

var (
	kernelMu sync.RWMutex
	kernels  = make(map[string]Kernel)
)

// knownKernelNames are the names SET distance_kernel accepts on every
// host, whether or not the host registers them: a session script
// recorded on an AVX2 machine must replay on one without it.
var knownKernelNames = []string{"avx2", "ref", "unrolled"}

// RegisterKernel installs a kernel implementation. It panics on
// duplicate registration (a programming error).
func RegisterKernel(k Kernel) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := kernels[k.Name()]; dup {
		panic(fmt.Sprintf("vec: duplicate kernel %q", k.Name()))
	}
	kernels[k.Name()] = k
}

func init() {
	RegisterKernel(refKernel{})
	RegisterKernel(unrolledKernel{})
}

// KnownKernelNames returns every name ForName resolves without error,
// sorted — including names that fall back on this host.
func KnownKernelNames() []string {
	out := make([]string, len(knownKernelNames))
	copy(out, knownKernelNames)
	return out
}

// RegisteredKernelNames returns the kernels actually available on this
// host, sorted.
func RegisteredKernelNames() []string {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	out := make([]string, 0, len(kernels))
	for n := range kernels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ForName resolves a kernel by name. The empty string resolves to the
// default. A known-but-unregistered name (avx2 on a host without the
// ISA) falls back to the default kernel instead of erroring, so knob
// replay works across heterogeneous cluster nodes; the returned
// kernel's Name() reports what actually runs (EXPLAIN shows it).
func ForName(name string) (Kernel, error) {
	if name == "" {
		name = DefaultKernelName
	}
	kernelMu.RLock()
	k, ok := kernels[name]
	if !ok {
		k = kernels[DefaultKernelName]
	}
	kernelMu.RUnlock()
	if ok {
		return k, nil
	}
	for _, known := range knownKernelNames {
		if name == known {
			return k, nil
		}
	}
	return nil, fmt.Errorf("vec: unknown distance kernel %q (have %v)", name, KnownKernelNames())
}

// Ref returns the reference kernel — the fixed, session-independent
// arithmetic used wherever a result must not depend on SET
// distance_kernel: bucket assignment (Insert and Delete must re-derive
// the same bucket), index build/training, and test oracles.
func Ref() Kernel {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return kernels["ref"]
}

// Default returns the default kernel.
func Default() Kernel {
	k, _ := ForName("")
	return k
}

// NTParallel partitions the rows of A across nthreads goroutines, each
// running kern.L2SqrNT on its slice. Row partitioning keeps every
// (i, j) pair inside one serial kernel call, so the result is
// bit-identical to the serial kern.L2SqrNT for any kernel. nthreads ≤ 0
// means all CPUs.
func NTParallel(kern Kernel, a []float32, m, k int, b []float32, n int, c []float32, nthreads int) {
	if m < 8 || nthreads == 1 {
		kern.L2SqrNT(a, m, k, b, n, c)
		return
	}
	if nthreads <= 0 {
		nthreads = runtime.GOMAXPROCS(0)
	}
	if nthreads > m/4 {
		nthreads = m / 4
	}
	if nthreads <= 1 {
		kern.L2SqrNT(a, m, k, b, n, c)
		return
	}
	rowsPer := (m + nthreads - 1) / nthreads
	var wg sync.WaitGroup
	for t := 0; t < nthreads; t++ {
		lo := t * rowsPer
		if lo >= m {
			break
		}
		hi := min(lo+rowsPer, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kern.L2SqrNT(a[lo*k:hi*k], hi-lo, k, b, n, c[lo*n:hi*n])
		}(lo, hi)
	}
	wg.Wait()
}

// refKernel is the PASE-style scalar baseline: one sequential
// accumulator chain per pair, everywhere. Its batched forms delegate to
// the blas L2 routines, whose per-pair chains are proven bit-equal to
// L2SqrRef (see internal/blas/l2batch.go).
type refKernel struct{}

// Name implements Kernel.
func (refKernel) Name() string { return "ref" }

// L2Sqr implements Kernel.
func (refKernel) L2Sqr(x, y []float32) float32 { return L2SqrRef(x, y) }

// L2SqrBatch implements Kernel.
func (refKernel) L2SqrBatch(q []float32, rows [][]float32, out []float32) {
	for i, r := range rows {
		out[i] = L2SqrRef(q, r)
	}
}

// L2SqrNT implements Kernel.
func (refKernel) L2SqrNT(a []float32, m, k int, b []float32, n int, c []float32) {
	blas.L2SqrNT(a, m, k, b, n, c)
}

// L2SqrNTRows implements Kernel.
func (refKernel) L2SqrNTRows(rows [][]float32, k int, b []float32, n int, c []float32) {
	blas.L2SqrNTRows(rows, k, b, n, c)
}

// L2SqrSQ8 implements Kernel: the sequential reference form of the
// asymmetric distance, d_i = q_i − (min_i + step_i·code_i).
func (refKernel) L2SqrSQ8(q []float32, code []byte, sq *SQ8) float32 {
	mn, st := sq.Min, sq.Step
	var s float32
	for i := range q {
		d := q[i] - (mn[i] + st[i]*float32(code[i]))
		s += d * d
	}
	return s
}

// L2SqrSQ8Batch implements Kernel.
func (k refKernel) L2SqrSQ8Batch(q []float32, codes [][]byte, sq *SQ8, out []float32) {
	for i, c := range codes {
		out[i] = k.L2SqrSQ8(q, c, sq)
	}
}

// DotSQ8Batch implements Kernel: one sequential chain per code.
func (refKernel) DotSQ8Batch(w []float32, codes [][]byte, out []float32) {
	for i, code := range codes {
		code = code[:len(w)]
		var s float32
		for j, c := range code {
			s += w[j] * float32(c)
		}
		out[i] = s
	}
}

// unrolledKernel is the default kernel: eight independent accumulator
// chains per pair (four for the SQ8 forms), reduced pairwise at the
// end. On amd64 every method runs an SSE2 assembly body whose vector
// lanes are exactly those chains (kernel_unrolled_amd64.s); elsewhere
// the Go bodies below run. Both compute the same bits. L2SqrBatch, the
// NT forms and DotSQ8Batch score four rows or codes against one shared
// row per call, and each pair still runs its own chains, so solo/batch
// bit-parity holds by construction.
type unrolledKernel struct{}

// Name implements Kernel.
func (unrolledKernel) Name() string { return "unrolled" }

// L2Sqr implements Kernel.
func (unrolledKernel) L2Sqr(x, y []float32) float32 { return l2sqrUnrolled(x, y) }

// L2SqrBatch implements Kernel. The four-row form computes
// L2Sqr(rows[i], q), which is bitwise L2Sqr(q, rows[i]) by sign
// symmetry.
func (unrolledKernel) L2SqrBatch(q []float32, rows [][]float32, out []float32) {
	n := len(q)
	out = out[:len(rows)]
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = l2sqrUnrolled4(q,
			rows[i][:n], rows[i+1][:n], rows[i+2][:n], rows[i+3][:n])
	}
	for ; i < len(rows); i++ {
		out[i] = l2sqrUnrolled(q, rows[i])
	}
}

// L2SqrNT implements Kernel.
func (unrolledKernel) L2SqrNT(a []float32, m, kk int, b []float32, n int, c []float32) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0, a1, a2, a3 := a[i*kk:(i+1)*kk], a[(i+1)*kk:(i+2)*kk], a[(i+2)*kk:(i+3)*kk], a[(i+3)*kk:(i+4)*kk]
		for j := 0; j < n; j++ {
			c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = l2sqrUnrolled4(b[j*kk:(j+1)*kk], a0, a1, a2, a3)
		}
	}
	for ; i < m; i++ {
		for j := 0; j < n; j++ {
			c[i*n+j] = l2sqrUnrolled(a[i*kk:(i+1)*kk], b[j*kk:(j+1)*kk])
		}
	}
}

// L2SqrNTRows implements Kernel.
func (unrolledKernel) L2SqrNTRows(rows [][]float32, kk int, b []float32, n int, c []float32) {
	m := len(rows)
	i := 0
	for ; i+4 <= m; i += 4 {
		r0, r1, r2, r3 := rows[i][:kk], rows[i+1][:kk], rows[i+2][:kk], rows[i+3][:kk]
		for j := 0; j < n; j++ {
			c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = l2sqrUnrolled4(b[j*kk:(j+1)*kk], r0, r1, r2, r3)
		}
	}
	for ; i < m; i++ {
		for j := 0; j < n; j++ {
			c[i*n+j] = l2sqrUnrolled(rows[i][:kk], b[j*kk:(j+1)*kk])
		}
	}
}

// L2SqrSQ8 implements Kernel.
func (unrolledKernel) L2SqrSQ8(q []float32, code []byte, sq *SQ8) float32 {
	return l2sqrSQ8Unrolled(q, code, sq.Min, sq.Step)
}

// L2SqrSQ8Batch implements Kernel.
func (unrolledKernel) L2SqrSQ8Batch(q []float32, codes [][]byte, sq *SQ8, out []float32) {
	for i, c := range codes {
		out[i] = l2sqrSQ8Unrolled(q, c, sq.Min, sq.Step)
	}
}

// DotSQ8Batch implements Kernel. Each code runs its own four chains,
// whether it lands in a four-code block or in the remainder, so out[i]
// is a pure function of (w, codes[i]).
func (unrolledKernel) DotSQ8Batch(w []float32, codes [][]byte, out []float32) {
	n := len(w)
	out = out[:len(codes)]
	i := 0
	for ; i+4 <= len(codes); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = dotSQ8Unrolled4(w,
			codes[i][:n], codes[i+1][:n], codes[i+2][:n], codes[i+3][:n])
	}
	for ; i < len(codes); i++ {
		out[i] = dotSQ8Unrolled(w, codes[i])
	}
}

// The Go bodies below define the unrolled kernel's arithmetic. They run
// on every platform without an assembly body and are the oracle the
// amd64 assembly is tested against bit for bit. Each product is
// converted to float32 explicitly: the conversion forbids the compiler
// from fusing the multiply into the following add (Go may emit FMA when
// GOAMD64 ≥ v3), so every step rounds exactly as the SSE2 lanes do.

// l2sqrUnrolledGo returns ‖x−y‖² over len(x) elements with eight chains:
// s_j sums (x_i−y_i)² over i ≡ j (mod 8), the ragged tail goes into s0,
// and the chains reduce as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)). The
// fixed-length subslices let the compiler prove every index in bounds.
func l2sqrUnrolledGo(x, y []float32) float32 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		xx := x[i : i+8 : i+8]
		yy := y[i : i+8 : i+8]
		d0 := xx[0] - yy[0]
		d1 := xx[1] - yy[1]
		d2 := xx[2] - yy[2]
		d3 := xx[3] - yy[3]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
		d4 := xx[4] - yy[4]
		d5 := xx[5] - yy[5]
		d6 := xx[6] - yy[6]
		d7 := xx[7] - yy[7]
		s4 += float32(d4 * d4)
		s5 += float32(d5 * d5)
		s6 += float32(d6 * d6)
		s7 += float32(d7 * d7)
	}
	for ; i < n; i++ {
		d := x[i] - y[i]
		s0 += float32(d * d)
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// l2sqrSQ8UnrolledGo returns Σ (q_i − (mn_i + st_i·c_i))² over len(q)
// elements with four chains (i ≡ j mod 4, tail into s0), reduced as
// (s0+s1)+(s2+s3). The hoisted reslices and fixed-length subslices
// prove every index of all four arrays in bounds.
func l2sqrSQ8UnrolledGo(q []float32, code []byte, mn, st []float32) float32 {
	n := len(q)
	code = code[:n]
	mn = mn[:n]
	st = st[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		qq := q[i : i+4 : i+4]
		cc := code[i : i+4 : i+4]
		mm := mn[i : i+4 : i+4]
		ss := st[i : i+4 : i+4]
		d0 := qq[0] - (mm[0] + float32(ss[0]*float32(cc[0])))
		d1 := qq[1] - (mm[1] + float32(ss[1]*float32(cc[1])))
		d2 := qq[2] - (mm[2] + float32(ss[2]*float32(cc[2])))
		d3 := qq[3] - (mm[3] + float32(ss[3]*float32(cc[3])))
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
	}
	for ; i < n; i++ {
		d := q[i] - (mn[i] + float32(st[i]*float32(code[i])))
		s0 += float32(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

// dotSQ8UnrolledGo returns Σ w_i·float32(c_i) over len(w) elements with
// four chains (i ≡ j mod 4, tail into s0), reduced as (s0+s1)+(s2+s3).
func dotSQ8UnrolledGo(w []float32, code []byte) float32 {
	n := len(w)
	code = code[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		ww := w[i : i+4 : i+4]
		cc := code[i : i+4 : i+4]
		s0 += float32(ww[0] * float32(cc[0]))
		s1 += float32(ww[1] * float32(cc[1]))
		s2 += float32(ww[2] * float32(cc[2]))
		s3 += float32(ww[3] * float32(cc[3]))
	}
	for ; i < n; i++ {
		s0 += float32(w[i] * float32(code[i]))
	}
	return (s0 + s1) + (s2 + s3)
}
