package engine

import (
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
)

// scenario is one differential-test case: two mappings over the same
// 2-D domain, a shifted statement, a schedule replay, a remap and a
// reduction. run executes it on one backend and returns everything
// observable; the fuzz target asserts both backends observe exactly
// the same.
type scenario struct {
	np     int
	n      int
	f1, f2 dist.Format
	shift  [2]int
	srcRep bool // use a replicated source term
	// near adds a term at a shift next to shift, so it re-reads most
	// of the same remote elements (ghost deduplication across terms).
	near bool
	// self adds a term whose source is the lhs, at shift.
	self bool
	// sub picks the statement's region inside the largest in-bounds
	// one: per dimension, the low-bound offset and the extent, each
	// reduced modulo what fits; all zero means the whole region.
	sub      [4]uint8
	replayIt int
	// tkind is the spmd transport the scenario runs on ("inproc",
	// "shm" or
	// "tcp"); the sim backend performs no communication.
	tkind string
}

type outcome struct {
	errs   []string
	data   []float64
	moved  int
	sum    float64
	report machine.Report
}

func buildMapping(t *testing.T, sys *proc.System, dom index.Domain, f dist.Format) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("P")
	if !ok {
		var err error
		arr, err = sys.DeclareArray("P", index.Standard(1, sys.AP.N()))
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := dist.New(dom, []dist.Format{f, dist.Collapsed{}}, proc.Whole(arr))
	if err != nil {
		t.Skipf("invalid format for domain: %v", err)
	}
	return core.DistMapping{D: d}
}

func replicatedMapping(t *testing.T, sys *proc.System, dom index.Domain) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("REP")
	if !ok {
		var err error
		arr, err = sys.DeclareScalar("REP", proc.ScalarReplicated)
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := dist.New(dom, []dist.Format{dist.Collapsed{}, dist.Collapsed{}}, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	return core.DistMapping{D: d}
}

// run executes the scenario on the given backend kind. Mapping
// construction is shared; only the execution backend differs.
func (sc scenario) run(t *testing.T, kind string) outcome {
	t.Helper()
	var out outcome
	fail := func(err error) {
		out.errs = append(out.errs, err.Error())
	}
	sys, err := proc.NewSystem(sc.np)
	if err != nil {
		t.Fatal(err)
	}
	dom := index.Standard(1, sc.n, 1, sc.n)
	m1 := buildMapping(t, sys, dom, sc.f1)
	m2 := buildMapping(t, sys, dom, sc.f2)
	tkind := sc.tkind
	if tkind == "" {
		tkind = InprocTransport
	}
	eng, err := NewOn(kind, tkind, sc.np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a, err := eng.NewArray("A", m1)
	if err != nil {
		fail(err)
		return out
	}
	b, err := eng.NewArray("B", m2)
	if err != nil {
		fail(err)
		return out
	}
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*13 - tu[1]*5) })
	shifts := [][2]int{{0, 0}, sc.shift}
	terms := []Term{Read(a, 0.5, 0, 0), Read(a, 1, sc.shift[0], sc.shift[1])}
	if sc.near {
		nb := [2]int{sc.shift[0], sc.shift[1] + 1}
		if nb[1] > 2 {
			nb[1] = sc.shift[1] - 1
		}
		shifts = append(shifts, nb)
		terms = append(terms, Read(a, 0.25, nb[0], nb[1]))
	}
	if sc.self {
		b.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*7 + tu[1]*3) })
		terms = append(terms, Read(b, -0.5, sc.shift[0], sc.shift[1]))
	}
	if sc.srcRep {
		r, err := eng.NewArray("R", replicatedMapping(t, sys, dom))
		if err != nil {
			fail(err)
			return out
		}
		r.Fill(func(tu index.Tuple) float64 { return float64(tu[0] + 100*tu[1]) })
		terms = append(terms, Read(r, 2, 0, 0))
	}
	// The largest region every shifted reference keeps in bounds.
	lo, hi := [2]int{1, 1}, [2]int{sc.n, sc.n}
	for _, sh := range shifts {
		for d := range lo {
			lo[d] = max(lo[d], 1-sh[d])
			hi[d] = min(hi[d], sc.n-sh[d])
		}
	}
	if lo[0] > hi[0] || lo[1] > hi[1] {
		return out
	}
	// An arbitrary sub-rectangle of it (the sweep's shrinking K+1:N
	// corner, a single row, ...).
	for d := range lo {
		if off, ext := int(sc.sub[2*d]), int(sc.sub[2*d+1]); off != 0 || ext != 0 {
			lo[d] += off % (hi[d] - lo[d] + 1)
			hi[d] = lo[d] + ext%(hi[d]-lo[d]+1)
		}
	}
	region := index.Standard(lo[0], hi[0], lo[1], hi[1])
	if err := b.Assign(region, terms); err != nil {
		fail(err)
	}
	sched, err := b.NewSchedule(region, terms)
	if err != nil {
		fail(err)
	} else if err := sched.ExecuteN(sc.replayIt); err != nil {
		fail(err)
	}
	moved, err := a.Remap(m2)
	if err != nil {
		fail(err)
	}
	out.moved = moved
	sum, err := b.Reduce(runtime.ReduceSum)
	if err != nil {
		fail(err)
	}
	out.sum = sum
	out.data = append(a.Data(), b.Data()...)
	out.report = eng.Stats()
	return out
}

func formatFor(sel, k uint8, n, np int) dist.Format {
	switch sel % 5 {
	case 0:
		return dist.Block{}
	case 1:
		return dist.BlockVienna{}
	case 2:
		return dist.Cyclic{K: int(k%5) + 1}
	case 3:
		bounds := make([]int, np-1)
		for i := range bounds {
			b := (i + 1) * n / np
			b += int(k) % 3
			if b > n {
				b = n
			}
			if i > 0 && b < bounds[i-1] {
				b = bounds[i-1]
			}
			bounds[i] = b
		}
		return dist.GeneralBlock{Bounds: bounds}
	default:
		owner := make([]int, n)
		x := uint32(k)*2654435761 + 1
		for i := range owner {
			x = x*1664525 + 1013904223
			owner[i] = int(x>>16)%np + 1
		}
		f, err := dist.NewIndirect(owner)
		if err != nil {
			return dist.Block{}
		}
		return f
	}
}

// FuzzEngineEquivalence is the differential fuzz target of the spmd
// engine against the sequential oracle: for random formats, shifts,
// regions, replicated sources, a second term re-reading the first's
// remote elements, a term reading the lhs itself, remaps and
// transports (inproc channels, shm rings or tcp loopback sockets),
// both backends must produce identical array values, identical remap
// counts, identical reduction results and an identical
// machine.Report.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(12), uint8(0), uint8(2), uint8(0), uint8(1), uint8(2), false, uint8(0), false, false, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(9), uint8(2), uint8(4), uint8(3), uint8(3), uint8(3), false, uint8(2), false, false, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(16), uint8(4), uint8(1), uint8(7), uint8(2), uint8(0), true, uint8(1), false, false, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(7), uint8(3), uint8(0), uint8(1), uint8(4), uint8(2), false, uint8(2), false, false, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(10), uint8(1), uint8(4), uint8(9), uint8(2), uint8(2), true, uint8(1), false, false, uint8(0), uint8(0), uint8(0), uint8(0))
	// The sweep step: (CYCLIC,:), shift (-1,-1), region K+1:N, the lhs
	// read back.
	f.Add(uint8(2), uint8(12), uint8(2), uint8(0), uint8(0), uint8(1), uint8(1), false, uint8(0), false, true, uint8(2), uint8(12), uint8(2), uint8(12))
	// A one-row region.
	f.Add(uint8(1), uint8(5), uint8(0), uint8(2), uint8(1), uint8(3), uint8(2), false, uint8(1), false, false, uint8(3), uint8(0), uint8(0), uint8(0))
	// Two terms reading the same ghost row at neighbouring shifts.
	f.Add(uint8(2), uint8(8), uint8(0), uint8(2), uint8(0), uint8(1), uint8(2), false, uint8(2), true, false, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(10), uint8(2), uint8(3), uint8(2), uint8(3), uint8(1), false, uint8(0), true, true, uint8(1), uint8(5), uint8(0), uint8(7))
	f.Add(uint8(0), uint8(15), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), true, uint8(1), true, false, uint8(1), uint8(3), uint8(2), uint8(9))
	f.Fuzz(func(t *testing.T, npB, nB, sel1, sel2, k, sh0, sh1 uint8, srcRep bool, wireSel uint8, near, self bool, s0, s1, s2, s3 uint8) {
		np := int(npB%7) + 2
		n := int(nB%20) + 4
		wires := Transports()
		tkind := wires[int(wireSel)%len(wires)]
		sc := scenario{
			np:       np,
			n:        n,
			f1:       formatFor(sel1, k, n, np),
			f2:       formatFor(sel2, k+1, n, np),
			shift:    [2]int{int(sh0%5) - 2, int(sh1%5) - 2},
			srcRep:   srcRep,
			near:     near,
			self:     self,
			sub:      [4]uint8{s0, s1, s2, s3},
			replayIt: 2,
			tkind:    tkind,
		}
		sim := sc.run(t, Sim)
		spmd := sc.run(t, SPMD)
		if len(sim.errs) != len(spmd.errs) {
			t.Fatalf("error mismatch: sim %v, spmd %v", sim.errs, spmd.errs)
		}
		if len(sim.errs) > 0 {
			return
		}
		if sim.moved != spmd.moved {
			t.Fatalf("moved: sim %d, spmd %d", sim.moved, spmd.moved)
		}
		if sim.sum != spmd.sum {
			t.Fatalf("reduce: sim %g, spmd %g", sim.sum, spmd.sum)
		}
		if len(sim.data) != len(spmd.data) {
			t.Fatalf("data length: sim %d, spmd %d", len(sim.data), len(spmd.data))
		}
		for i := range sim.data {
			if sim.data[i] != spmd.data[i] {
				t.Fatalf("value mismatch at %d: sim %g, spmd %g", i, sim.data[i], spmd.data[i])
			}
		}
		if sim.report != spmd.report {
			t.Fatalf("report mismatch:\n sim  %+v\n spmd %+v", sim.report, spmd.report)
		}
	})
}
