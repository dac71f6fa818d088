package spmd

import (
	"fmt"
	"slices"
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
	}
	stmts := []stmt{
		{"5-point", index.Standard(2, n-1, 2, n-1), [][2]int{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}}, false},
		{"9-point", index.Standard(2, n-1, 2, n-1), [][2]int{{-1, -1}, {-1, 0}, {-1, 1}, {1, -1}, {1, 0}, {1, 1}}, false},
		{"sweep", index.Standard(4, n, 4, n), [][2]int{{-1, -1}, {0, 0}}, true},
		{"one-row", index.Standard(7, 7, 1, n-2), [][2]int{{1, 2}, {-2, 0}}, false},
		{"self-shift", index.Standard(3, n-2, 2, n), [][2]int{{2, -1}, {-2, 0}}, true},
	}
	for _, lm := range maps {
		for _, sm := range maps {
			for _, st := range stmts {
				t.Run(fmt.Sprintf("%s=%s/%s", lm.name, sm.name, st.name), func(t *testing.T) {
					e := newEngine(t, np)
					src, err := e.NewArray("A", mapping2(t, sys, dom, sm.f0, sm.f1))
					if err != nil {
						t.Fatal(err)
					}
					src.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*31-tu[1]*7) / 8 })
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
							terms = append(terms, cterm{src: a, coeff: 0.5 + float64(k), shift: sh[:]})
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
					if !slices.Equal(lhs[0].Data(), lhs[1].Data()) {
						t.Fatalf("values differ between tile lowering and element walk")
					}
				})
			}
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
