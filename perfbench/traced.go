package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hpfnt/hpf"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
)

// spans keeps the benchmark's own spans — one per job, segment and
// direct layer call — in memory until the run ends.
type spans struct{ rec *obs.Recorder }

// since records a span from start to now and returns its length in
// nanoseconds.
func (sp *spans) since(kind, name string, start time.Time) int64 {
	d := time.Since(start).Nanoseconds()
	sp.rec.Emit(obs.Event{Kind: kind, Name: name, Start: start.UnixNano(), Dur: max(d, 1)})
	return d
}

// counterSnap is the program's counters at one segment boundary.
type counterSnap struct {
	rep    hpf.Report
	frames int64
	wire   transport.WireStats
}

func snap(s *session) counterSnap {
	c := counterSnap{rep: s.prog.Stats(), frames: s.prog.Machine.WireFrames()}
	if wc, ok := s.tr.(transport.WireCounter); ok {
		c.wire = wc.Wire()
	}
	return c
}

// loopDelta sums counter growth over the loop segments.
type loopDelta struct {
	msgs, elems, frames   int64
	wireFrames, wireBytes int64
}

func (d *loopDelta) add(a, b counterSnap) {
	d.msgs += b.rep.Messages - a.rep.Messages
	d.elems += b.rep.ElementsMoved - a.rep.ElementsMoved
	d.frames += b.frames - a.frames
	d.wireFrames += b.wire.FramesSent - a.wire.FramesSent
	d.wireBytes += b.wire.BytesSent - a.wire.BytesSent
}

// maxPhases bounds the mapping phases the direct calls replay: the
// first two cover every distinct mapping of the three programs.
const maxPhases = 2

// tracedRun measures the per-layer metrics. Each round runs one
// untraced job (the base of the tracing overhead), one job with the
// program's phase timers and event trace on — reading its counters at
// every segment boundary — and then the direct layer calls on that
// job's engine and on a sim engine, until the budget is spent. Every
// metric is the median of its per-round samples.
func tracedRun(w *workload, sz size, in inputs, budget time.Duration, tracePath string) *run {
	r := newRun()
	plan := w.plan(sz)
	sp := &spans{rec: obs.NewRecorder(0, 1<<14)}
	var last *obs.Recorder
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		base, _ := r.checkedJob(w, sz, in, plan)
		rec, err := r.tracedRound(w, sz, in, plan, sp, base)
		if err != nil {
			r.fail(err)
		}
		if rec != nil {
			last = rec
		}
	}
	for _, m := range perLayer {
		r.set(m.name, m.unit, median(r.samples[m.name]))
	}
	events := sp.rec.Snapshot()
	if last != nil {
		events = append(events, last.Snapshot()...)
	}
	if err := writeTrace(tracePath, events); err != nil {
		// The trace file is a by-product: losing it fails no check.
		r.errors = append(r.errors, err.Error())
	} else {
		r.traceFile = tracePath
	}
	return r
}

func writeTrace(path string, events []obs.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := obs.WriteTrace(path, events); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// tracedRound runs one traced job plus the direct layer calls,
// adding one sample per per-layer metric. base is the round's
// untraced job (nil if it failed). It returns the round's event
// recorder.
func (r *run) tracedRound(w *workload, sz size, in inputs, plan []segment, sp *spans, base *jobRun) (*obs.Recorder, error) {
	obs.EnableTiming(true)
	rec := obs.StartTrace(0, 1<<16)
	defer func() {
		obs.StopTrace()
		obs.EnableTiming(false)
	}()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hits0, misses0 := interp.CacheStats()
	var (
		phases []map[string]hpf.Mapping
		before counterSnap
		loops  loopDelta
	)
	h := hooks{
		before: func(s *session, i int, seg segment) {
			if seg.kind != segLoop {
				return
			}
			if i == 0 || plan[i-1].kind != segLoop {
				maps := map[string]hpf.Mapping{}
				for _, name := range w.arrays {
					maps[name], _ = s.prog.MappingOf(name)
				}
				phases = append(phases, maps)
			}
			before = snap(s)
		},
		after: func(s *session, i int, seg segment, start time.Time, wall time.Duration) {
			sp.since("segment", seg.kind.String(), start)
			if seg.kind == segLoop {
				loops.add(before, snap(s))
			}
		},
	}
	r.attempted++
	jobStart := time.Now()
	jr, s, err := runJob(w, plan, in, engine.SPMD, h)
	if err != nil {
		return nil, err
	}
	defer s.close()
	runtime.ReadMemStats(&ms1)
	hits1, misses1 := interp.CacheStats()
	sp.rec.Emit(obs.Event{Kind: "job", Name: w.name, Start: jobStart.UnixNano(), Dur: int64(jr.jobSeconds() * 1e9)})
	sp.rec.Emit(obs.Event{Kind: "segment", Name: "bring-up", Start: jobStart.UnixNano(), Dur: jr.bringup.Nanoseconds()})
	ref := reference(w, in, sz)
	if err := checkOutput(jr.output, ref.values); err != nil {
		return rec, err
	}
	end := snap(s)

	iters := float64(loopIters(plan))
	tracedIter := median(jr.iterMS(plan))
	r.add("interp.forall_ms", median(jr.kindWalls(plan, segInit)))
	r.add("interp.cache_hits", float64(hits1-hits0))
	r.add("interp.cache_misses", float64(misses1-misses0))
	r.add("directive.exec_ms", median(jr.kindWalls(plan, segDecl)))
	r.add("directive.redistribute_ms", median(jr.kindWalls(plan, segRemap)))
	r.add("phase.compute_s", end.rep.Phase.Compute)
	r.add("phase.ghost_wait_s", end.rep.Phase.GhostWait)
	r.add("phase.barrier_wait_s", end.rep.Phase.BarrierWait)
	r.add("phase.reduce_s", end.rep.Phase.Reduce)
	r.add("transport.frames_per_iter", float64(loops.wireFrames)/iters)
	r.add("transport.bytes_per_iter", float64(loops.wireBytes)/iters)
	r.add("transport.stalls", float64(end.wire.Stalls))
	r.add("machine.messages_per_iter", float64(loops.msgs)/iters)
	r.add("machine.elements_per_iter", float64(loops.elems)/iters)
	r.add("machine.wire_frames", float64(loops.frames))
	r.add("machine.load_imbalance", end.rep.LoadImbalance)
	r.add("floor.iter_ms", ref.iterNS/1e6)
	r.add("floor.bytes_per_iter", w.floorBytes(sz))
	r.add("floor.flops_per_iter", w.floorFlops(sz))
	r.add("mem.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.add("mem.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	if base != nil {
		r.add("obs.overhead_ratio", jr.jobSeconds()/base.jobSeconds())
	}

	// Direct layer calls, on the traced job's engine and wire.
	var parse []float64
	src := source(plan)
	for i := 0; i < 10; i++ {
		t := time.Now()
		if err := interp.Check(src); err != nil {
			return rec, err
		}
		parse = append(parse, float64(sp.since("direct", "interp.Check", t))/1e6)
	}
	r.add("interp.parse_ms", median(parse))
	if len(phases) > maxPhases {
		phases = phases[:maxPhases]
	}
	ds, err := probeDirect(s, w, in, sz, phases, true, sp)
	if err != nil {
		return rec, fmt.Errorf("direct calls: %w", err)
	}
	per := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	r.add("interp.loop_overhead_ms", tracedIter-per(ds.iterNS, ds.iters)/1e6)
	r.add("spmd.compile_ms", per(ds.compileNS, ds.builds)/1e6)
	r.add("spmd.compile_allocs", per(ds.compileAllocs, ds.builds))
	r.add("spmd.replay_ms", per(ds.replayNS, ds.iters)/1e6)
	r.add("spmd.replay_allocs", per(ds.replayAllocs, ds.iters))
	r.add("spmd.irregular_replay_ms", per(ds.irrReplayNS, ds.iters)/1e6)
	r.add("spmd.remap_ms", per(ds.remapNS, ds.remaps)/1e6)
	r.add("spmd.remap_elems", per(ds.remapElems, ds.remaps))
	r.add("inspector.build_ms", per(ds.inspectNS, ds.builds)/1e6)
	r.add("inspector.ghost_elems", per(ds.ghostElems, ds.builds))
	r.add("inspector.messages", per(ds.messages, ds.builds))
	red, err := probeReduce(s, w, sp)
	if err != nil {
		return rec, fmt.Errorf("reduce: %w", err)
	}
	r.add("spmd.reduce_ms", red/1e6)
	r.add("transport.msg_us", probeMessages(s.tr, sp)/1e3)

	// The sim engine's tile-based schedule builder on the same
	// statements: the compile floor.
	sim, err := bringUp(w, in, engine.Sim)
	if err != nil {
		return rec, err
	}
	defer sim.close()
	if _, err := sim.ip.Run(plan[0].src); err != nil {
		return rec, fmt.Errorf("sim declarations: %w", err)
	}
	sds, err := probeDirect(sim, w, in, sz, phases, false, sp)
	if err != nil {
		return rec, fmt.Errorf("sim direct calls: %w", err)
	}
	r.add("runtime.compile_ms", per(sds.compileNS, sds.builds)/1e6)
	return rec, nil
}

// perLayer lists the traced run's metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"interp.parse_ms", "ms"},
	{"interp.forall_ms", "ms"},
	{"interp.loop_overhead_ms", "ms"},
	{"interp.cache_hits", "count"},
	{"interp.cache_misses", "count"},
	{"directive.exec_ms", "ms"},
	{"directive.redistribute_ms", "ms"},
	{"spmd.compile_ms", "ms"},
	{"spmd.compile_allocs", "count"},
	{"spmd.replay_ms", "ms"},
	{"spmd.replay_allocs", "count"},
	{"spmd.irregular_replay_ms", "ms"},
	{"spmd.remap_ms", "ms"},
	{"spmd.remap_elems", "count"},
	{"spmd.reduce_ms", "ms"},
	{"phase.compute_s", "s"},
	{"phase.ghost_wait_s", "s"},
	{"phase.barrier_wait_s", "s"},
	{"phase.reduce_s", "s"},
	{"inspector.build_ms", "ms"},
	{"inspector.ghost_elems", "count"},
	{"inspector.messages", "count"},
	{"runtime.compile_ms", "ms"},
	{"transport.msg_us", "us"},
	{"transport.frames_per_iter", "count"},
	{"transport.bytes_per_iter", "B"},
	{"transport.stalls", "count"},
	{"machine.messages_per_iter", "count"},
	{"machine.elements_per_iter", "count"},
	{"machine.wire_frames", "count"},
	{"machine.load_imbalance", "ratio"},
	{"floor.iter_ms", "ms"},
	{"floor.bytes_per_iter", "B"},
	{"floor.flops_per_iter", "flop"},
	{"mem.alloc_mb", "MB"},
	{"mem.gc_cycles", "count"},
	{"obs.overhead_ratio", "ratio"},
}
