// Package main_bench holds the benchmark harness: one testing.B
// bench per reproduction experiment (E1–E13, see the experiment index
// in README.md and the per-experiment doc comments in internal/exper),
// each asserting its paper-claim checks on the first iteration, plus
// micro-benchmarks of the mapping primitives.
//
// Run with: go test -bench=. -benchmem
package main_bench

import (
	"testing"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/exper"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/transport"
	"hpfnt/internal/workload"
)

// benchExperiment runs one experiment per iteration and fails the
// bench if any paper-claim check fails.
func benchExperiment(b *testing.B, f func() (exper.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f()
		if err != nil {
			b.Fatalf("%v", err)
		}
		if i == 0 && !r.Passed() {
			b.Fatalf("experiment checks failed:\n%s", r.Render())
		}
	}
}

func BenchmarkE1DistributionFormats(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E1DistributionFormats(16, 4) })
}

func BenchmarkE2StaggeredGrid(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E2StaggeredGrid(64, 4, 4) })
}

func BenchmarkE2StaggeredGridLarge(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E2StaggeredGrid(128, 4, 4) })
}

func BenchmarkE2bBlockVariantAblation(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E2bBlockVariantAblation(64, 8) })
}

func BenchmarkE3ProcedureBoundary(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E3ProcedureBoundary() })
}

func BenchmarkE4GeneralBlockBalance(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E4GeneralBlockBalance(4096, 16) })
}

func BenchmarkE5ProcessorSections(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E5ProcessorSections(64, 8) })
}

func BenchmarkE6RedistributeBundling(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E6RedistributeBundling(256, 8, 4) })
}

func BenchmarkE7RealignSurgery(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E7RealignSurgery(128, 8) })
}

func BenchmarkE8Allocatables(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E8Allocatables() })
}

func BenchmarkE9CyclicLU(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E9CyclicLU(1024, 16) })
}

func BenchmarkE10Replication(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E10Replication(64, 8) })
}

func BenchmarkE11Collapse(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E11Collapse(64, 8) })
}

func BenchmarkE12TemplateLimitations(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E12TemplateLimitations() })
}

func BenchmarkE13GeneralDistributions(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E13GeneralDistributions(1024, 8) })
}

// --- Ablation: per-statement communication analysis vs reusing a
// precomputed overlap (ghost region) schedule across iterations ---

func jacobiSetup(b *testing.B) (*runtime.Array, *runtime.Array, index.Domain, []runtime.Term) {
	b.Helper()
	sys, err := proc.NewSystem(8)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, 8))
	if err != nil {
		b.Fatal(err)
	}
	n := 128
	dom := index.Standard(1, n, 1, n)
	d, err := dist.New(dom, []dist.Format{dist.Block{}, dist.Collapsed{}}, proc.Whole(arr))
	if err != nil {
		b.Fatal(err)
	}
	a, err := runtime.NewArray("A", core.DistMapping{D: d})
	if err != nil {
		b.Fatal(err)
	}
	a.Fill(func(t index.Tuple) float64 { return float64(t[0] + t[1]) })
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []runtime.Term{
		runtime.Ref(a, 0.25, -1, 0), runtime.Ref(a, 0.25, 1, 0),
		runtime.Ref(a, 0.25, 0, -1), runtime.Ref(a, 0.25, 0, 1),
	}
	return a, a, interior, terms
}

func BenchmarkAblationPerStatementAnalysis(b *testing.B) {
	lhs, _, interior, terms := jacobiSetup(b)
	m, err := machine.New(8, machine.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runtime.ShiftAssign(m, lhs, interior, terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScheduleReuse(b *testing.B) {
	lhs, _, interior, terms := jacobiSetup(b)
	sched, err := runtime.BuildSchedule(lhs, interior, terms)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(8, machine.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Execute(m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Schedule-build micro-benchmarks: the run-based ownership
// analysis against region size and format family. allocs/op is the
// headline number — the analysis is O(runs + ghost boundary), not
// O(region volume). ---

func scheduleBuildSetup(b *testing.B, n int, f dist.Format) (*runtime.Array, index.Domain, []runtime.Term) {
	b.Helper()
	sys, err := proc.NewSystem(8)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, 8))
	if err != nil {
		b.Fatal(err)
	}
	dom := index.Standard(1, n, 1, n)
	d, err := dist.New(dom, []dist.Format{f, dist.Collapsed{}}, proc.Whole(arr))
	if err != nil {
		b.Fatal(err)
	}
	a, err := runtime.NewArray("A", core.DistMapping{D: d})
	if err != nil {
		b.Fatal(err)
	}
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []runtime.Term{
		runtime.Ref(a, 0.25, -1, 0), runtime.Ref(a, 0.25, 1, 0),
		runtime.Ref(a, 0.25, 0, -1), runtime.Ref(a, 0.25, 0, 1),
	}
	return a, interior, terms
}

func benchScheduleBuild(b *testing.B, n int, f dist.Format) {
	lhs, interior, terms := scheduleBuildSetup(b, n, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.BuildSchedule(lhs, interior, terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleBuildBlockSmall(b *testing.B) { benchScheduleBuild(b, 32, dist.Block{}) }

func BenchmarkScheduleBuildBlockLarge(b *testing.B) { benchScheduleBuild(b, 128, dist.Block{}) }

func BenchmarkScheduleBuildCyclicSmall(b *testing.B) { benchScheduleBuild(b, 32, dist.Cyclic{K: 4}) }

func BenchmarkScheduleBuildCyclicLarge(b *testing.B) { benchScheduleBuild(b, 128, dist.Cyclic{K: 4}) }

func BenchmarkScheduleBuildGeneralBlockLarge(b *testing.B) {
	benchScheduleBuild(b, 128, dist.GeneralBlock{Bounds: []int{10, 26, 42, 64, 90, 102, 116}})
}

// --- Micro-benchmarks of the mapping primitives ---

func BenchmarkBlockMap(b *testing.B) {
	f := dist.Block{}
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkViennaBlockMap(b *testing.B) {
	f := dist.BlockVienna{}
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkCyclicMap(b *testing.B) {
	f := dist.Cyclic{K: 8}
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkGeneralBlockMap(b *testing.B) {
	bounds := make([]int, 15)
	for i := range bounds {
		bounds[i] = (i + 1) * 256
	}
	f := dist.GeneralBlock{Bounds: bounds}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkDistributionOwners(b *testing.B) {
	sys, err := proc.NewSystem(16)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, 4, 1, 4))
	if err != nil {
		b.Fatal(err)
	}
	d, err := dist.New(index.Standard(1, 256, 1, 256),
		[]dist.Format{dist.Block{}, dist.Cyclic{K: 4}}, proc.Whole(arr))
	if err != nil {
		b.Fatal(err)
	}
	t := index.Tuple{1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t[0] = i%256 + 1
		t[1] = (i/256)%256 + 1
		if _, err := d.Owners(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlignmentImage(b *testing.B) {
	alignee := index.Standard(1, 1024)
	base := index.Standard(1, 2048)
	fn, err := align.Normalize(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", -1))},
	}, alignee, base, expr.Env{})
	if err != nil {
		b.Fatal(err)
	}
	t := index.Tuple{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t[0] = i%1024 + 1
		if _, err := fn.Image(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiSweep(b *testing.B) {
	sys, err := proc.NewSystem(8)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, 8))
	if err != nil {
		b.Fatal(err)
	}
	dom := index.Standard(1, 128, 1, 128)
	mk := func() interface {
		Domain() index.Domain
		Owners(index.Tuple) ([]int, error)
		Describe() string
	} {
		d, err := dist.New(dom, []dist.Format{dist.Block{}, dist.Collapsed{}}, proc.Whole(arr))
		if err != nil {
			b.Fatal(err)
		}
		return core.DistMapping{D: d}
	}
	am, bm := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.JacobiSweep(128, 8, am, bm, machine.DefaultCost()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSweepCyclic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.LUSweep(1024, 16, dist.Cyclic{K: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel engine: 512² Jacobi schedule replay, sequential
// simulator vs the spmd engine (the speedup benchmark behind the
// -speedup flag of cmd/hpfbench). ---

func benchJacobiReplay(b *testing.B, kind string) {
	b.Helper()
	eng, err := engine.New(kind, 8, machine.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	n := 512
	am, err := workload.BlockRowMapping(n, 8)
	if err != nil {
		b.Fatal(err)
	}
	bm, err := workload.BlockRowMapping(n, 8)
	if err != nil {
		b.Fatal(err)
	}
	aa, err := eng.NewArray("A", am)
	if err != nil {
		b.Fatal(err)
	}
	ba, err := eng.NewArray("B", bm)
	if err != nil {
		b.Fatal(err)
	}
	aa.Fill(func(t index.Tuple) float64 { return float64((t[0]*7 + t[1]) % 101) })
	sched, err := ba.NewSchedule(index.Standard(2, n-1, 2, n-1), []engine.Term{
		engine.Read(aa, 0.25, -1, 0), engine.Read(aa, 0.25, 1, 0),
		engine.Read(aa, 0.25, 0, -1), engine.Read(aa, 0.25, 0, 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiReplaySim(b *testing.B) { benchJacobiReplay(b, engine.Sim) }

func BenchmarkJacobiReplaySPMD(b *testing.B) { benchJacobiReplay(b, engine.SPMD) }

// BenchmarkJacobiReplaySPMDTraced is the same replay with the full
// observability stack live — phase timers on and the trace recorder
// installed — so `-bench 'JacobiReplaySPMD'` shows the
// instrumentation overhead side by side (the acceptance budget is
// <5%; TestObservabilityOverhead in internal/workload gates it).
func BenchmarkJacobiReplaySPMDTraced(b *testing.B) {
	obs.EnableTiming(true)
	obs.StartTrace(0, 1<<14)
	defer func() {
		obs.StopTrace()
		obs.EnableTiming(false)
	}()
	benchJacobiReplay(b, engine.SPMD)
}

// BenchmarkSpmdScheduleBuild measures the spmd schedule compiler
// (per-worker plans plus ghost-exchange lists) on 8 processors: the
// 4-point stencil over the 128² and 512² (BLOCK,:) interiors, and the
// first step of the 128² (CYCLIC,:) LU sweep,
// R(2:N,2:N) = R(2:N,2:N) + A(1:N-1,1:N-1)/16.
func BenchmarkSpmdScheduleBuild(b *testing.B) {
	const np = 8
	cases := []struct {
		name   string
		n      int
		format dist.Format
		sweep  bool
	}{
		{"stencil128-block", 128, dist.Block{}, false},
		{"stencil512-block", 512, dist.Block{}, false},
		{"sweep128-cyclic", 128, dist.Cyclic{K: 1}, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			eng, err := engine.New(engine.SPMD, np, machine.DefaultCost())
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			n := tc.n
			sys, err := proc.NewSystem(np)
			if err != nil {
				b.Fatal(err)
			}
			parr, err := sys.DeclareArray("P", index.Standard(1, np))
			if err != nil {
				b.Fatal(err)
			}
			d, err := dist.New(index.Standard(1, n, 1, n), []dist.Format{tc.format, dist.Collapsed{}}, proc.Whole(parr))
			if err != nil {
				b.Fatal(err)
			}
			m := core.DistMapping{D: d}
			aa, _ := eng.NewArray("A", m)
			ba, _ := eng.NewArray("B", m)
			terms := []engine.Term{
				engine.Read(aa, 0.25, -1, 0), engine.Read(aa, 0.25, 1, 0),
				engine.Read(aa, 0.25, 0, -1), engine.Read(aa, 0.25, 0, 1),
			}
			region := index.Standard(2, n-1, 2, n-1)
			if tc.sweep {
				terms = []engine.Term{engine.Read(ba, 1, 0, 0), engine.Read(aa, 1.0/16, -1, -1)}
				region = index.Standard(2, n, 2, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ba.NewSchedule(region, terms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchIrregularCG prepares the 64k-nonzero sparse CG workload
// (q = A·x through the inspector–executor subsystem) on the spmd
// engine and returns the compiled state.
func benchIrregularCG(b *testing.B) *workload.SparseCG {
	b.Helper()
	const n, nnz, np = 8192, 65536, 8
	eng, err := engine.New(engine.SPMD, np, machine.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	sys := workload.SparseMatrix(n, nnz, 23)
	xm, err := workload.Rank1Mapping(n, np, dist.Block{})
	if err != nil {
		b.Fatal(err)
	}
	qm, err := workload.Rank1Mapping(n, np, dist.Block{})
	if err != nil {
		b.Fatal(err)
	}
	c, err := workload.NewSparseCG(eng, sys, xm, qm)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkIrregularReplayFirst measures the first iteration of the
// irregular gather: the inspector (ownership partition, remote
// deduplication, schedule compilation) plus one execution. Compare
// against BenchmarkIrregularReplaySteady for the schedule-reuse
// amortization (acceptance gate: steady ≥ 5× faster; see
// TestIrregularAmortization).
func BenchmarkIrregularReplayFirst(b *testing.B) {
	c := benchIrregularCG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := c.NewSchedule()
		if err != nil {
			b.Fatal(err)
		}
		if err := sched.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIrregularReplaySteady measures the steady-state iteration:
// the compiled schedule replayed with no per-iteration analysis.
func BenchmarkIrregularReplaySteady(b *testing.B) {
	c := benchIrregularCG(b)
	sched, err := c.NewSchedule()
	if err != nil {
		b.Fatal(err)
	}
	if err := sched.Execute(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGhostExchange builds the 256² row-blocked 5-point Jacobi
// schedule on a spmd engine over the given transport and replays it
// as one epoch. The statement (B <- A) does not overwrite its input,
// so schedule-level coalescing ships each pair's frame once for the
// whole epoch: the reported frames/op vs msgs/op metrics show the
// coalescing win per wire (frames/op tends to zero as N grows while
// the cost model still charges 14 logical messages per iteration).
func benchGhostExchange(b *testing.B, transportKind string) {
	const n, np = 256, 8
	eng, err := engine.NewOn(engine.SPMD, transportKind, np, machine.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	am, err := workload.BlockRowMapping(n, np)
	if err != nil {
		b.Fatal(err)
	}
	bm, err := workload.BlockRowMapping(n, np)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.JacobiReplay(eng, n, 1, am, bm); err != nil {
		b.Fatal(err)
	}
	eng.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := workload.JacobiReplay(eng, n, b.N, am, bm)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Machine().WireFrames())/float64(b.N), "frames/op")
	b.ReportMetric(float64(rep.Messages)/float64(b.N), "msgs/op")
}

// BenchmarkGhostExchangeTransport runs the coalesced ghost exchange
// over every registered wire.
func BenchmarkGhostExchangeTransport(b *testing.B) {
	for _, kind := range transport.Kinds() {
		b.Run(kind, func(b *testing.B) { benchGhostExchange(b, kind) })
	}
}

// benchGhostExchangeInPlace is the non-coalescible counterpart: an
// in-place sweep (A <- A) whose every iteration depends on the
// previous stores, so each of the 14 boundary frames must cross the
// wire per iteration — the per-iteration delta between wires
// quantifies the raw per-message overhead inside a compiled schedule.
func benchGhostExchangeInPlace(b *testing.B, transportKind string) {
	const n, np = 256, 8
	eng, err := engine.NewOn(engine.SPMD, transportKind, np, machine.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	am, err := workload.BlockRowMapping(n, np)
	if err != nil {
		b.Fatal(err)
	}
	a, err := eng.NewArray("A", am)
	if err != nil {
		b.Fatal(err)
	}
	a.Fill(func(t index.Tuple) float64 { return float64((t[0]*t[1])%97) * 1e-4 })
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []engine.Term{
		engine.Read(a, 0.25, -1, 0),
		engine.Read(a, 0.25, 1, 0),
		engine.Read(a, 0.25, 0, -1),
		engine.Read(a, 0.25, 0, 1),
	}
	sched, err := a.NewSchedule(interior, terms)
	if err != nil {
		b.Fatal(err)
	}
	if err := sched.Execute(); err != nil {
		b.Fatal(err)
	}
	eng.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	if err := sched.ExecuteN(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Machine().WireFrames())/float64(b.N), "frames/op")
	b.ReportMetric(float64(eng.Stats().Messages)/float64(b.N), "msgs/op")
}

// BenchmarkGhostExchangeInPlaceTransport runs the per-iteration ghost
// exchange over every registered wire.
func BenchmarkGhostExchangeInPlaceTransport(b *testing.B) {
	for _, kind := range transport.Kinds() {
		b.Run(kind, func(b *testing.B) { benchGhostExchangeInPlace(b, kind) })
	}
}

// benchTransportMessage measures the raw per-message cost of one
// rank-pair stream: a 16-element message bounced between two ranks.
func benchTransportMessage(b *testing.B, kind string) {
	tr, err := transport.New(kind, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	msg := make([]float64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(1, 2, msg)
		if got := tr.Recv(1, 2); len(got) != len(msg) {
			b.Fatalf("message truncated: %d elements", len(got))
		}
	}
}

// BenchmarkTransportMessage measures every registered wire (the
// shm-vs-tcp ratio here is the tentpole's ≥5× acceptance gate; see
// cmd/benchgate).
func BenchmarkTransportMessage(b *testing.B) {
	for _, kind := range transport.Kinds() {
		b.Run(kind, func(b *testing.B) { benchTransportMessage(b, kind) })
	}
}
