package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// The reference kernels compute each program's PRINT values with
// plain single-goroutine Go over dense slices, independently of every
// layer under test. Their timed loop is the in-run hardware floor.

// refResult is a reference kernel's outcome.
type refResult struct {
	// values are the expected PRINT values in program order.
	values []float64
	// iterNS is the kernel's loop wall per iteration, in nanoseconds.
	iterNS float64
}

// minFloorWork is the least reference-kernel time behind one floor
// sample: short kernels are repeated and their median taken.
const minFloorWork = 25 * time.Millisecond

// reference runs the workload's reference kernel, repeating it until
// it has run for minFloorWork, and returns its values with the median
// per-iteration wall.
func reference(w *workload, in inputs, sz size) refResult {
	t0 := time.Now()
	ref := w.ref(in, sz)
	per := []float64{ref.iterNS}
	for time.Since(t0) < minFloorWork {
		per = append(per, w.ref(in, sz).iterNS)
	}
	ref.iterNS = median(per)
	return ref
}

// relTol bounds the relative difference accepted between a printed
// value and its reference: reductions combine partial sums in a
// different order than the reference's single loop.
const relTol = 1e-9

// checkOutput compares the program's PRINT output with the reference
// values, line by line.
func checkOutput(out string, want []float64) error {
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(want) {
		return fmt.Errorf("got %d PRINT lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, ln := range lines {
		k := strings.LastIndex(ln, " = ")
		if k < 0 {
			return fmt.Errorf("PRINT line %d %q has no value", i+1, ln)
		}
		got, err := strconv.ParseFloat(ln[k+3:], 64)
		if err != nil {
			return fmt.Errorf("PRINT line %d %q: %v", i+1, ln, err)
		}
		if math.Abs(got-want[i]) > relTol*math.Max(1, math.Abs(want[i])) {
			return fmt.Errorf("PRINT line %d %q: want %v", i+1, ln, want[i])
		}
	}
	return nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func maxval(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// stencilRef runs the Jacobi loop on row-major n×n slices.
func stencilRef(in inputs, sz size) refResult {
	n, sa, sb := sz.n, in.params["SA"], in.params["SB"]
	u, v := make([]float64, n*n), make([]float64, n*n)
	at := func(i, j int) int { return (i-1)*n + j - 1 }
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			u[at(i, j)] = float64((i*sa + j*sb) % 11)
		}
	}
	iters := sz.iters * sz.blocks
	t0 := time.Now()
	for k := 0; k < iters; k++ {
		for i := 1; i < n-1; i++ {
			up, mid, dn, out := u[(i-1)*n:i*n], u[i*n:(i+1)*n], u[(i+1)*n:(i+2)*n], v[i*n:(i+1)*n]
			for j := 1; j < n-1; j++ {
				out[j] = 0.25*up[j] + 0.25*dn[j] + 0.25*mid[j-1] + 0.25*mid[j+1]
			}
		}
		for i := 1; i < n-1; i++ {
			copy(u[i*n+1:(i+1)*n-1], v[i*n+1:(i+1)*n-1])
		}
	}
	wall := time.Since(t0)
	mid := in.params["MID"]
	return refResult{
		values: []float64{sum(u), maxval(u), u[at(mid, mid)]},
		iterNS: float64(wall.Nanoseconds()) / float64(iters),
	}
}

// gatherRef runs the gather / update / scatter loop on dense
// vectors (the remap changes no values).
func gatherRef(in inputs, sz size) refResult {
	n, m, sa, sb := sz.n, sz.m, in.params["SA"], in.params["SB"]
	col, perm := in.arrays["COL"], in.arrays["PERM"]
	x, y, z := make([]float64, n), make([]float64, m), make([]float64, n)
	for i := range x {
		x[i] = float64(((i+1)*sa + sb) % 97)
	}
	iters := 2 * sz.iters * sz.blocks
	t0 := time.Now()
	for k := 0; k < iters; k++ {
		for i, c := range col {
			y[i] = 0.5 * x[c-1]
		}
		for i := range z {
			z[i] = 0.25*y[i] + 0.25*y[n+i] + 0.5*x[i]
		}
		for i, p := range perm {
			x[p-1] = z[i]
		}
	}
	wall := time.Since(t0)
	return refResult{
		values: []float64{sum(x), maxval(y), sum(z), x[in.params["MID"]-1]},
		iterNS: float64(wall.Nanoseconds()) / float64(iters),
	}
}

// sweepRef runs the shrinking triangular update pass after pass (the
// remaps change no values).
func sweepRef(in inputs, sz size) refResult {
	n, sa, sb := sz.n, in.params["SA"], in.params["SB"]
	a, r := make([]float64, n*n), make([]float64, n*n)
	at := func(i, j int) int { return (i-1)*n + j - 1 }
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			a[at(i, j)] = float64((i*sa+j*j*sb)%13 + 1)
		}
	}
	passes := 2 * sz.blocks
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for k := 1; k < n; k++ {
			// Row i (0-based k..n-1) gains A's row i-1, both from column k.
			for i := k; i < n; i++ {
				dst, src := r[i*n+k:(i+1)*n], a[(i-1)*n+k-1:i*n-1]
				for j := range dst {
					dst[j] += 1.0 / 16 * src[j]
				}
			}
		}
	}
	wall := time.Since(t0)
	return refResult{
		values: []float64{sum(r), r[at(n, n)], r[at(2, 2)], maxval(r)},
		iterNS: float64(wall.Nanoseconds()) / float64(passes*(n-1)),
	}
}
