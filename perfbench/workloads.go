package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"hpfnt/hpf"
)

// The three workloads. Each runs one directive-language program
// through the interpreter on the spmd engine with 4 abstract
// processors, on its own wire, and each loads a different layer:
//
//   - stencil (shm): a 512² two-statement Jacobi 5-point loop under
//     (BLOCK,:). Chosen because the steady spmd replay dominates and
//     ghost rows cross the shm rings every iteration; the two
//     statements compile once and there is no inspector or remap.
//   - gather (tcp): X(1:8192) under a seeded INDIRECT(OWNA), a seeded
//     65 536-entry gather Y(1:M) = 0.5*X(COL), a mixed-mapping regular
//     update of a CYCLIC Z, and a seeded-permutation scatter
//     X(PERM) = Z(1:N); then REDISTRIBUTE X(INDIRECT(OWNB)) starts a
//     second phase. Chosen because it drives one INDIRECT layer for
//     both reads and writes, rebuilds inspectors after a remap, and
//     makes the interpreter re-resolve (and re-hash) the 64k-entry
//     vector every iteration.
//   - sweep (inproc): the lusweep.hpf shrinking triangular update at
//     N=128, repeated in passes, each preceded by a REDISTRIBUTE of
//     both arrays alternating (CYCLIC,:) and (BLOCK,:). Chosen because
//     every iteration compiles a fresh section schedule, so schedule
//     compile dominates and replay and wire time are small.
//
// Program text is fixed; the seed reaches the program only through
// integer parameters (SetParam) and vectors (SetParamArray).

// segKind classifies a program segment: each segment is one
// Interp.Run call on the shared interpreter.
type segKind int

const (
	segDecl  segKind = iota // declarations and mapping directives
	segInit                 // FORALL initialisation
	segLoop                 // one equal-work block of loop iterations
	segRemap                // REDISTRIBUTE directives
	segPrint                // PRINT epilogue
)

func (k segKind) String() string {
	return [...]string{"decl", "init", "loop", "remap", "print"}[k]
}

// segment is one consecutive slice of a workload's program text.
type segment struct {
	kind segKind
	src  string
	// iters is the loop iterations a segLoop segment runs.
	iters int
	// group numbers the equal-work block a segLoop segment belongs
	// to (a sweep block is a CYCLIC pass plus the following BLOCK
	// pass); -1 for other kinds.
	group int
}

// size fixes a workload's problem size.
type size struct {
	n, m   int // array extents (m: gather's Y length)
	iters  int // loop iterations per block (sweep: derived from n)
	blocks int // blocks per phase (sweep: pass pairs)
}

// inputs are everything the seed determines: the integer parameters
// and vectors handed to the program.
type inputs struct {
	params map[string]int
	arrays map[string][]int
}

// workload is one benchmark program with its sizes and reference.
type workload struct {
	name string
	why  string
	wire string
	full size
	tiny size
	// plan lays out the program's segments for a size.
	plan func(sz size) []segment
	// arrays names the arrays the loop touches, and stmts gives one
	// loop iteration's statements over them in direct hpf form, at
	// loop variable k; varying reports that the statements depend on
	// k (and so compile every iteration).
	arrays  []string
	stmts   func(a map[string]*hpf.DistArray, in inputs, sz size, k int) []stmt
	varying bool
	// gen draws the seeded inputs for a size.
	gen func(seed uint64, sz size) inputs
	// ref computes the expected PRINT values with a plain Go kernel,
	// returning them in PRINT order plus the kernel's loop wall per
	// iteration (the hardware floor).
	ref func(in inputs, sz size) refResult
	// floorBytes and floorFlops give one loop iteration's memory
	// traffic (computed from array sizes) and floating-point work.
	floorBytes func(sz size) float64
	floorFlops func(sz size) float64
}

// np is the abstract processor count of every workload.
const np = 4

var workloads = []*workload{
	{
		name: "stencil", wire: "shm",
		why:  "512² Jacobi on shm: spmd replay and per-iteration ghost frames dominate; compiles twice, no inspector or remap",
		full: size{n: 512, iters: 10, blocks: 8},
		tiny: size{n: 16, iters: 3, blocks: 2},
		plan: stencilPlan, gen: stencilGen, ref: stencilRef,
		arrays: []string{"U", "V"}, stmts: stencilStmts,
		floorBytes: func(sz size) float64 { return 4 * 8 * float64(sq(sz.n-2)) },
		floorFlops: func(sz size) float64 { return 7 * float64(sq(sz.n-2)) },
	},
	{
		name: "gather", wire: "tcp",
		why:  "INDIRECT gather+scatter on tcp: inspector rebuild after a remap and per-iteration interp resolve of a 64k vector dominate",
		full: size{n: 8192, m: 65536, iters: 4, blocks: 4},
		tiny: size{n: 64, m: 256, iters: 2, blocks: 2},
		plan: gatherPlan, gen: gatherGen, ref: gatherRef,
		arrays: []string{"X", "Y", "Z"}, stmts: gatherStmts,
		floorBytes: func(sz size) float64 { return 24*float64(sz.m) + 56*float64(sz.n) },
		floorFlops: func(sz size) float64 { return float64(sz.m) + 5*float64(sz.n) },
	},
	{
		name: "sweep", wire: "inproc",
		why:  "shrinking LU sweep on inproc with CYCLIC/BLOCK remaps: a fresh schedule compile every iteration dominates",
		full: size{n: 128, blocks: 2},
		tiny: size{n: 16, blocks: 1},
		plan: sweepPlan, gen: sweepGen, ref: sweepRef,
		arrays: []string{"A", "R"}, stmts: sweepStmts, varying: true,
		floorBytes: func(sz size) float64 { return 24 * sweepCells(sz.n) / float64(sz.n-1) },
		floorFlops: func(sz size) float64 { return 2 * sweepCells(sz.n) / float64(sz.n-1) },
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func sq(x int) int { return x * x }

// sweepCells is the element count one sweep pass updates:
// Σ_{K=1}^{N-1} (N-K)².
func sweepCells(n int) float64 {
	c := 0
	for k := 1; k < n; k++ {
		c += sq(n - k)
	}
	return float64(c)
}

// source concatenates a plan's segments: the whole program text.
func source(plan []segment) string {
	var b strings.Builder
	for _, s := range plan {
		b.WriteString(s.src)
	}
	return b.String()
}

// loopIters totals the loop iterations of a plan.
func loopIters(plan []segment) int {
	n := 0
	for _, s := range plan {
		if s.kind == segLoop {
			n += s.iters
		}
	}
	return n
}

// rng returns the workload's deterministic generator for a seed.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// multipliers draws the two initialisation multipliers SA, SB from
// 1..10 (kept below every modulus the programs use).
func multipliers(r *rand.Rand) map[string]int {
	return map[string]int{"SA": 1 + r.IntN(10), "SB": 1 + r.IntN(10)}
}

// ---- stencil ----

const stencilDecl = `PROCESSORS P(4)
REAL U(1:N,1:N), V(1:N,1:N)
!HPF$ DISTRIBUTE (BLOCK,:) :: U, V
`

const stencilInit = `FORALL (I = 1:N, J = 1:N) U(I,J) = MOD(I*SA + J*SB, 11)
FORALL (I = 1:N, J = 1:N) V(I,J) = 0
`

const stencilLoop = `DO K = 1, ITERS
  V(2:N-1,2:N-1) = 0.25*U(1:N-2,2:N-1) + 0.25*U(3:N,2:N-1) + 0.25*U(2:N-1,1:N-2) + 0.25*U(2:N-1,3:N)
  U(2:N-1,2:N-1) = V(2:N-1,2:N-1)
END DO
`

const stencilPrint = `PRINT SUM(U)
PRINT MAXVAL(U)
PRINT U(MID,MID)
`

func stencilPlan(sz size) []segment {
	plan := []segment{{kind: segDecl, src: stencilDecl, group: -1}, {kind: segInit, src: stencilInit, group: -1}}
	for b := 0; b < sz.blocks; b++ {
		plan = append(plan, segment{kind: segLoop, src: stencilLoop, iters: sz.iters, group: b})
	}
	return append(plan, segment{kind: segPrint, src: stencilPrint, group: -1})
}

func stencilStmts(a map[string]*hpf.DistArray, _ inputs, sz size, _ int) []stmt {
	u, v := a["U"], a["V"]
	region := hpf.Shape(2, sz.n-1, 2, sz.n-1)
	return []stmt{
		{build: func() (*hpf.Schedule, error) {
			return v.NewSchedule(region, hpf.Read(u, 0.25, -1, 0), hpf.Read(u, 0.25, 1, 0),
				hpf.Read(u, 0.25, 0, -1), hpf.Read(u, 0.25, 0, 1))
		}},
		{build: func() (*hpf.Schedule, error) { return u.NewSchedule(region, hpf.Read(v, 1, 0, 0)) }},
	}
}

func stencilGen(seed uint64, sz size) inputs {
	p := multipliers(rng(seed, 1))
	p["N"], p["ITERS"], p["MID"] = sz.n, sz.iters, sz.n/2
	return inputs{params: p}
}

// ---- gather ----

const gatherDecl = `PROCESSORS P(4)
REAL X(1:N), Y(1:M), Z(1:N)
!HPF$ DYNAMIC X
!HPF$ DISTRIBUTE X(INDIRECT(OWNA)) TO P
!HPF$ DISTRIBUTE Y(BLOCK) TO P
!HPF$ DISTRIBUTE Z(CYCLIC) TO P
`

const gatherInit = `FORALL (I = 1:N) X(I) = MOD(I*SA + SB, 97)
FORALL (I = 1:M) Y(I) = 0
FORALL (I = 1:N) Z(I) = 0
`

const gatherLoop = `DO K = 1, ITERS
  Y(1:M) = 0.5*X(COL)
  Z(1:N) = 0.25*Y(1:N) + 0.25*Y(N+1:2*N) + 0.5*X(1:N)
  X(PERM) = Z(1:N)
END DO
`

const gatherRemap = `!HPF$ REDISTRIBUTE X(INDIRECT(OWNB)) TO P
`

const gatherPrint = `PRINT SUM(X)
PRINT MAXVAL(Y)
PRINT SUM(Z)
PRINT X(MID)
`

func gatherPlan(sz size) []segment {
	plan := []segment{{kind: segDecl, src: gatherDecl, group: -1}, {kind: segInit, src: gatherInit, group: -1}}
	g := 0
	for phase := 0; phase < 2; phase++ {
		if phase == 1 {
			plan = append(plan, segment{kind: segRemap, src: gatherRemap, group: -1})
		}
		for b := 0; b < sz.blocks; b++ {
			plan = append(plan, segment{kind: segLoop, src: gatherLoop, iters: sz.iters, group: g})
			g++
		}
	}
	return append(plan, segment{kind: segPrint, src: gatherPrint, group: -1})
}

func gatherStmts(a map[string]*hpf.DistArray, in inputs, sz size, _ int) []stmt {
	x, y, z := a["X"], a["Y"], a["Z"]
	seqM, seqN, half := seq(sz.m), seq(sz.n), make([]float64, sz.m)
	for i := range half {
		half[i] = 0.5
	}
	return []stmt{
		{irregular: true, build: func() (*hpf.Schedule, error) { return y.NewIrregular(x, seqM, in.arrays["COL"], half) }},
		{build: func() (*hpf.Schedule, error) {
			return z.NewSchedule(hpf.Shape(1, sz.n), hpf.Read(y, 0.25, 0), hpf.Read(y, 0.25, sz.n), hpf.Read(x, 0.5, 0))
		}},
		{irregular: true, build: func() (*hpf.Schedule, error) { return x.NewIrregular(z, in.arrays["PERM"], seqN, nil) }},
	}
}

// gatherGen draws the owner vectors OWNA and OWNB (uniform over the
// processors), the gather vector COL (uniform over 1..N) and the
// scatter permutation PERM.
func gatherGen(seed uint64, sz size) inputs {
	r := rng(seed, 2)
	p := multipliers(r)
	p["N"], p["M"], p["ITERS"], p["MID"] = sz.n, sz.m, sz.iters, sz.n/2
	owners := func() []int {
		v := make([]int, sz.n)
		for i := range v {
			v[i] = 1 + r.IntN(np)
		}
		return v
	}
	ownA, ownB := owners(), owners()
	col := make([]int, sz.m)
	for i := range col {
		col[i] = 1 + r.IntN(sz.n)
	}
	perm := r.Perm(sz.n)
	for i := range perm {
		perm[i]++
	}
	return inputs{params: p, arrays: map[string][]int{"OWNA": ownA, "OWNB": ownB, "COL": col, "PERM": perm}}
}

// ---- sweep ----

const sweepDecl = `PROCESSORS P(4)
REAL A(1:N,1:N), R(1:N,1:N)
!HPF$ DYNAMIC A, R
!HPF$ DISTRIBUTE A(BLOCK,:) TO P
!HPF$ DISTRIBUTE R(BLOCK,:) TO P
`

const sweepInit = `FORALL (I = 1:N, J = 1:N) A(I,J) = MOD(I*SA + J*J*SB, 13) + 1
FORALL (I = 1:N, J = 1:N) R(I,J) = 0
`

const sweepLoop = `DO K = 1, N-1
  R(K+1:N,K+1:N) = R(K+1:N,K+1:N) + 1/16*A(K:N-1,K:N-1)
END DO
`

func sweepRemap(format string) string {
	return fmt.Sprintf("!HPF$ REDISTRIBUTE A(%[1]s,:) TO P\n!HPF$ REDISTRIBUTE R(%[1]s,:) TO P\n", format)
}

const sweepPrint = `PRINT SUM(R)
PRINT R(N,N)
PRINT R(2,2)
PRINT MAXVAL(R)
`

func sweepPlan(sz size) []segment {
	plan := []segment{{kind: segDecl, src: sweepDecl, group: -1}, {kind: segInit, src: sweepInit, group: -1}}
	for b := 0; b < sz.blocks; b++ {
		for _, f := range []string{"CYCLIC", "BLOCK"} {
			plan = append(plan,
				segment{kind: segRemap, src: sweepRemap(f), group: -1},
				segment{kind: segLoop, src: sweepLoop, iters: sz.n - 1, group: b})
		}
	}
	return append(plan, segment{kind: segPrint, src: sweepPrint, group: -1})
}

func sweepStmts(a map[string]*hpf.DistArray, _ inputs, sz size, k int) []stmt {
	r, am := a["R"], a["A"]
	return []stmt{{build: func() (*hpf.Schedule, error) {
		return r.NewSchedule(hpf.Shape(k+1, sz.n, k+1, sz.n), hpf.Read(r, 1, 0, 0), hpf.Read(am, 1.0/16, -1, -1))
	}}}
}

func sweepGen(seed uint64, sz size) inputs {
	p := multipliers(rng(seed, 3))
	p["N"] = sz.n
	return inputs{params: p}
}
