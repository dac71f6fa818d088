package spmd

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// mapping2 distributes a rank-2 domain with one format per dimension.
func mapping2(t *testing.T, sys *proc.System, dom index.Domain, f0, f1 dist.Format) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("P")
	if !ok {
		var err error
		if arr, err = sys.DeclareArray("P", index.Standard(1, sys.AP.N())); err != nil {
			t.Fatal(err)
		}
	}
	d, err := dist.New(dom, []dist.Format{f0, f1}, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	return core.DistMapping{D: d}
}

// planShape is everything a worker plan contributes to the report.
type planShape struct {
	load, local, remote int
	sends               [][2]int // (dst, elements)
}

func shapes(s *Schedule) []planShape {
	out := make([]planShape, len(s.plans))
	for p, wp := range s.plans {
		if wp == nil {
			continue
		}
		out[p] = planShape{load: wp.load, local: wp.localRefs, remote: wp.remoteRefs}
		for _, sp := range wp.sends {
			out[p].sends = append(out[p].sends, [2]int{sp.dst, sp.n})
		}
	}
	return out
}

func segmentCounts(s *Schedule) (runs, indirect int) {
	for _, wp := range s.plans {
		if wp != nil {
			runs += len(wp.runs)
			indirect += len(wp.lhsSlots)
		}
	}
	return runs, indirect
}

// TestTileLoweringMatchesWalk checks the tile lowering against the
// element walk on the same statements: identical per-worker counters
// and per-pair elements, and bit-identical values after replay.
func TestTileLoweringMatchesWalk(t *testing.T) {
	const n, np = 21, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	colon := dist.Collapsed{}
	gb := dist.GeneralBlock{Bounds: []int{3, 11, 12}}
	maps := []struct {
		name   string
		f0, f1 dist.Format
	}{
		{"(BLOCK,:)", dist.Block{}, colon},
		{"(:,BLOCK)", colon, dist.Block{}},
		{"(CYCLIC,:)", dist.Cyclic{K: 1}, colon},
		{"(CYCLIC(3),:)", dist.Cyclic{K: 3}, colon},
		{"(:,GENERAL_BLOCK)", colon, gb},
	}
	type stmt struct {
		name   string
		region index.Domain
		shifts [][2]int
		self   bool // the last term reads the lhs
		zero   bool // the source is all zero and the coefficients negative
	}
	stmts := []stmt{
		{"copy", index.Standard(1, n, 2, n), [][2]int{{0, -1}}, false, false},
		// Every c·v is -0: the sum must start from 0 and end at +0.
		{"negative-zero", index.Standard(2, n, 1, n), [][2]int{{-1, 0}}, false, true},
		{"3-point", index.Standard(2, n-1, 1, n), [][2]int{{-1, 0}, {0, 0}, {1, 0}}, false, false},
		{"5-point", index.Standard(2, n-1, 2, n-1), [][2]int{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}}, false, false},
		{"9-point", index.Standard(2, n-1, 2, n-1), [][2]int{{-1, -1}, {-1, 0}, {-1, 1}, {1, -1}, {1, 0}, {1, 1}}, false, false},
		{"sweep", index.Standard(4, n, 4, n), [][2]int{{-1, -1}, {0, 0}}, true, false},
		{"one-row", index.Standard(7, 7, 1, n-2), [][2]int{{1, 2}, {-2, 0}}, false, false},
		{"self-shift", index.Standard(3, n-2, 2, n), [][2]int{{2, -1}, {-2, 0}}, true, false},
	}
	// Runs per statement by kind, over all mapping pairs: each
	// statement must exercise both the fused kernel (unit) and the
	// term-by-term loop (strided).
	unit, strided := map[string]int{}, map[string]int{}
	for _, lm := range maps {
		for _, sm := range maps {
			for _, st := range stmts {
				t.Run(fmt.Sprintf("%s=%s/%s", lm.name, sm.name, st.name), func(t *testing.T) {
					e := newEngine(t, np)
					src, err := e.NewArray("A", mapping2(t, sys, dom, sm.f0, sm.f1))
					if err != nil {
						t.Fatal(err)
					}
					src.Fill(func(tu index.Tuple) float64 {
						if st.zero {
							return 0
						}
						return float64(tu[0]*31-tu[1]*7) / 8
					})
					var scheds [2]*Schedule
					var lhs [2]*Array
					for i, tiles := range []bool{true, false} {
						if lhs[i], err = e.NewArray("B", mapping2(t, sys, dom, lm.f0, lm.f1)); err != nil {
							t.Fatal(err)
						}
						lhs[i].Fill(func(tu index.Tuple) float64 { return float64(tu[0] + 3*tu[1]) })
						var terms []cterm
						for k, sh := range st.shifts {
							a := src
							if st.self && k == len(st.shifts)-1 {
								a = lhs[i]
							}
							coeff := 0.5 + float64(k)
							if st.zero {
								coeff = -coeff
							}
							terms = append(terms, cterm{src: a, coeff: coeff, shift: sh[:]})
						}
						if scheds[i], err = e.compile(lhs[i], st.region, terms, tiles); err != nil {
							t.Fatal(err)
						}
					}
					if runs, _ := segmentCounts(scheds[0]); runs == 0 && lm.name == sm.name {
						t.Errorf("tile lowering produced no run segment")
					}
					gt, gw := shapes(scheds[0]), shapes(scheds[1])
					for p := range gt {
						if !slices.Equal(gt[p].sends, gw[p].sends) || gt[p].load != gw[p].load ||
							gt[p].local != gw[p].local || gt[p].remote != gw[p].remote {
							t.Fatalf("worker %d: tiles %+v, walk %+v", p, gt[p], gw[p])
						}
					}
					if scheds[0].GhostElements() != scheds[1].GhostElements() || scheds[0].Messages() != scheds[1].Messages() {
						t.Fatalf("ghost/messages: tiles %d/%d, walk %d/%d", scheds[0].GhostElements(), scheds[0].Messages(),
							scheds[1].GhostElements(), scheds[1].Messages())
					}
					for _, s := range scheds {
						if err := s.ExecuteN(3); err != nil {
							t.Fatal(err)
						}
					}
					for _, wp := range scheds[0].plans {
						if wp == nil {
							continue
						}
						for _, r := range wp.runs {
							if r.unit {
								unit[st.name]++
							} else {
								strided[st.name]++
							}
						}
					}
					vt, vw := lhs[0].Data(), lhs[1].Data()
					for i := range vt {
						if math.Float64bits(vt[i]) != math.Float64bits(vw[i]) {
							t.Fatalf("element %d: tile lowering %v (%#x), element walk %v (%#x)",
								i, vt[i], math.Float64bits(vt[i]), vw[i], math.Float64bits(vw[i]))
						}
					}
				})
			}
		}
	}
	for _, st := range stmts {
		if unit[st.name] == 0 || strided[st.name] == 0 {
			t.Errorf("%s: %d unit and %d strided runs, want both kinds", st.name, unit[st.name], strided[st.name])
		}
	}
}

// TestFastPathGuard pins the two statements the tile lowering exists
// for to run segments only, and pins their compile allocations, so a
// silent fallback to indirect segments fails here rather than only in
// the benchmark.
func TestFastPathGuard(t *testing.T) {
	const n, np = 128, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	cases := []struct {
		name      string
		format    dist.Format
		region    index.Domain
		shifts    [][2]int
		self      bool
		maxAllocs float64
	}{
		{"stencil (BLOCK,:)", dist.Block{}, index.Standard(2, n-1, 2, n-1),
			[][2]int{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}}, false, 160},
		{"sweep (CYCLIC,:) K=1", dist.Cyclic{K: 1}, index.Standard(2, n, 2, n),
			[][2]int{{0, 0}, {-1, -1}}, true, 160},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, np)
			m := mapping(t, sys, dom, tc.format)
			a, err := e.NewArray("A", m)
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.NewArray("B", m)
			if err != nil {
				t.Fatal(err)
			}
			var terms []Term
			for k, sh := range tc.shifts {
				src := a
				if tc.self && k == 0 {
					src = b
				}
				terms = append(terms, Ref(src, 0.25, sh[:]...))
			}
			s, err := e.BuildSchedule(b, tc.region, terms)
			if err != nil {
				t.Fatal(err)
			}
			if runs, indirect := segmentCounts(s); runs == 0 || indirect != 0 {
				t.Fatalf("%d run segments, %d indirect elements; want runs only", runs, indirect)
			}
			if raceEnabled {
				return // the race detector's instrumentation allocates
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := e.BuildSchedule(b, tc.region, terms); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.maxAllocs {
				t.Fatalf("compile allocates %.0f times, want at most %.0f", allocs, tc.maxAllocs)
			}
			t.Logf("compile: %.0f allocs", allocs)
		})
	}
}

// planDump renders everything a schedule's plans compile to except the
// value storage they point into, so plans of two engines compare.
func planDump(s *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ghost=%d messages=%d const=%v\n", s.ghostTotal, s.messages, s.constGhost)
	for p, wp := range s.plans {
		if wp == nil {
			continue
		}
		fmt.Fprintf(&b, "p%d load=%d local=%d remote=%d runs=%v runRefs=%v lhs=%v refs=%v ghost=%d tmp=%d\n",
			p, wp.load, wp.localRefs, wp.remoteRefs, wp.runs, wp.runRefs, wp.lhsSlots, wp.refs, len(wp.ghost), len(wp.tmp))
		for _, sp := range wp.sends {
			fmt.Fprintf(&b, "  send %d n=%d:", sp.dst, sp.n)
			for _, pt := range sp.parts {
				fmt.Fprintf(&b, " %v", pt.slots)
			}
			b.WriteByte('\n')
		}
		for _, rp := range wp.recvs {
			fmt.Fprintf(&b, "  recv %d %v\n", rp.src, rp.targets)
		}
	}
	return b.String()
}

// TestCompileReusesGhostTables compiles statements back to back on one
// engine, so later compiles run on ghost tables earlier ones used, and
// checks each plan against the same statement compiled first on a
// fresh engine.
func TestCompileReusesGhostTables(t *testing.T) {
	const n, np = 24, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	type stmt struct {
		region index.Domain
		shifts [][2]int
		walk   bool // compile element by element
	}
	stmts := []stmt{
		{index.Standard(2, n-1, 2, n-1), [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}, false},
		{index.Standard(2, n, 2, n), [][2]int{{-1, -1}, {-1, 0}}, false},
		{index.Standard(1, n-2, 1, n), [][2]int{{2, 0}, {1, 0}}, true},
		{index.Standard(2, n-1, 2, n-1), [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}, false},
	}
	build := func(e *Engine) (a, b *Array) {
		var err error
		if a, err = e.NewArray("A", mapping2(t, sys, dom, dist.Cyclic{K: 2}, dist.Collapsed{})); err != nil {
			t.Fatal(err)
		}
		if b, err = e.NewArray("B", mapping2(t, sys, dom, dist.Block{}, dist.Collapsed{})); err != nil {
			t.Fatal(err)
		}
		a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*5 - tu[1]) })
		return a, b
	}
	compile := func(e *Engine, a, b *Array, st stmt) *Schedule {
		var terms []cterm
		for k, sh := range st.shifts {
			terms = append(terms, cterm{src: a, coeff: float64(k + 1), shift: sh[:]})
		}
		s, err := e.compile(b, st.region, terms, !st.walk)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	e := newEngine(t, np)
	a, b := build(e)
	for i, st := range stmts {
		reused := compile(e, a, b, st)
		fe := newEngine(t, np)
		fa, fb := build(fe)
		fresh := compile(fe, fa, fb, st)
		if got, want := planDump(reused), planDump(fresh); got != want {
			t.Fatalf("statement %d: plan after earlier compiles\n%s\ndiffers from a fresh compile\n%s", i, got, want)
		}
		b.Fill(func(index.Tuple) float64 { return 0 })
		if err := reused.Execute(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Execute(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(b.Data(), fb.Data()) {
			t.Fatalf("statement %d: values differ from a fresh compile", i)
		}
	}
	if len(e.tables.free) == 0 {
		t.Fatal("no ghost table returned to the engine's pool")
	}
}

// TestUntracedEpochAllocs checks that an epoch with tracing off pays
// nothing per worker for its spans: a local-only ExecuteN allocates
// the same at np=2 and np=8.
func TestUntracedEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(np int) float64 {
		sys, _ := proc.NewSystem(np)
		dom := index.Standard(1, 64, 1, 8)
		e := newEngine(t, np)
		m := mapping(t, sys, dom, dist.Block{})
		a, err := e.NewArray("A", m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.NewArray("B", m)
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.BuildSchedule(b, dom, []Term{Ref(a, 2, 0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if s.Messages() != 0 {
			t.Fatalf("np=%d: %d messages, want a local-only statement", np, s.Messages())
		}
		return testing.AllocsPerRun(20, func() {
			if err := s.ExecuteN(3); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a2, a8 := allocs(2), allocs(8); a2 != a8 {
		t.Fatalf("ExecuteN allocates %.0f times at np=2 and %.0f at np=8, want equal", a2, a8)
	}
}

// TestConcurrentCompiles compiles on one engine from several
// goroutines at once, all borrowing from the same ghost-table pool,
// and checks every plan against a serial compile.
func TestConcurrentCompiles(t *testing.T) {
	const n, np = 32, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	e := newEngine(t, np)
	a, err := e.NewArray("A", mapping2(t, sys, dom, dist.Cyclic{K: 3}, dist.Collapsed{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.NewArray("B", mapping2(t, sys, dom, dist.Block{}, dist.Collapsed{}))
	if err != nil {
		t.Fatal(err)
	}
	terms := []Term{Ref(a, 1, -1, 0), Ref(a, 2, 1, 0), Ref(b, 3, 0, -1)}
	region := index.Standard(2, n-1, 2, n)
	want, err := e.BuildSchedule(b, region, terms)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s, err := e.BuildSchedule(b, region, terms)
				if err != nil {
					t.Error(err)
					return
				}
				if planDump(s) != planDump(want) {
					t.Error("a concurrent compile differs from the serial one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
