package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hpfnt/hpf"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/transport"
)

// session is one brought-up program: the wire (spmd only), the engine
// over it, the program and the interpreter that runs the segments.
type session struct {
	tr   transport.Transport
	prog *hpf.Program
	ip   *interp.Interp
}

// bringUp builds the engine by hand — transport.New → NewSPMDOn →
// NewProgramOn → interp.NewWith — so the benchmark holds the wire and
// can read its counters. engineKind "sim" builds the sequential
// oracle instead (no wire).
func bringUp(w *workload, in inputs, engineKind string) (*session, error) {
	s := &session{}
	var eng engine.Engine
	var err error
	if engineKind == engine.SPMD {
		if s.tr, err = transport.New(w.wire, np); err != nil {
			return nil, err
		}
		eng, err = engine.NewSPMDOn(s.tr, machine.DefaultCost())
	} else {
		eng, err = engine.New(engineKind, np, machine.DefaultCost())
	}
	if err != nil {
		return nil, err
	}
	if s.prog, err = hpf.NewProgramOn(w.name, eng); err != nil {
		eng.Close()
		return nil, err
	}
	for _, k := range sortedKeys(in.params) {
		s.prog.SetParam(k, in.params[k])
	}
	for _, k := range sortedKeys(in.arrays) {
		s.prog.SetParamArray(k, in.arrays[k])
	}
	s.ip = interp.NewWith(s.prog, interp.Options{})
	return s, nil
}

func (s *session) close() { s.prog.Close() }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// jobRun is the timing of one complete job: bring-up plus one wall
// per plan segment, each segment a separate Interp.Run call.
type jobRun struct {
	bringup time.Duration
	walls   []time.Duration
	output  string
	// peakHeap is the largest HeapInuse read at a segment boundary.
	peakHeap uint64
}

// hooks observe a job at its segment boundaries, outside the timed
// regions.
type hooks struct {
	before func(s *session, i int, seg segment)
	after  func(s *session, i int, seg segment, start time.Time, wall time.Duration)
}

// runJob brings a session up and runs the plan's segments on it in
// order. The session is returned open (for direct layer calls on the
// same engine) unless an error occurred; the caller closes it.
func runJob(w *workload, plan []segment, in inputs, engineKind string, h hooks) (*jobRun, *session, error) {
	jr := &jobRun{walls: make([]time.Duration, len(plan))}
	t0 := time.Now()
	s, err := bringUp(w, in, engineKind)
	jr.bringup = time.Since(t0)
	if err != nil {
		return nil, nil, fmt.Errorf("bring-up: %w", err)
	}
	jr.peakHeap = heapInuse()
	var res *interp.Result
	for i, seg := range plan {
		if h.before != nil {
			h.before(s, i, seg)
		}
		t := time.Now()
		res, err = s.ip.Run(seg.src)
		jr.walls[i] = time.Since(t)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("segment %d (%s): %w", i, seg.kind, err)
		}
		jr.peakHeap = max(jr.peakHeap, heapInuse())
		if h.after != nil {
			h.after(s, i, seg, t, jr.walls[i])
		}
	}
	jr.output = res.Output
	return jr, s, nil
}

func heapInuse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// jobSeconds is the wall from program text to the last PRINT line:
// bring-up plus every segment.
func (jr *jobRun) jobSeconds() float64 {
	d := jr.bringup
	for _, w := range jr.walls {
		d += w
	}
	return d.Seconds()
}

// setupSeconds is everything before the first loop segment.
func (jr *jobRun) setupSeconds(plan []segment) float64 {
	d := jr.bringup
	for i, seg := range plan {
		if seg.kind == segLoop {
			break
		}
		d += jr.walls[i]
	}
	return d.Seconds()
}

// iterMS returns one sample per equal-work block: the block's wall
// divided by its loop iterations, in milliseconds.
func (jr *jobRun) iterMS(plan []segment) []float64 {
	var wall []time.Duration
	var iters []int
	for i, seg := range plan {
		if seg.kind != segLoop {
			continue
		}
		for len(wall) <= seg.group {
			wall, iters = append(wall, 0), append(iters, 0)
		}
		wall[seg.group] += jr.walls[i]
		iters[seg.group] += seg.iters
	}
	out := make([]float64, len(wall))
	for g := range wall {
		out[g] = float64(wall[g].Nanoseconds()) / 1e6 / float64(iters[g])
	}
	return out
}

// kindWalls returns the walls of the plan's segments of one kind, in
// milliseconds.
func (jr *jobRun) kindWalls(plan []segment, k segKind) []float64 {
	var out []float64
	for i, seg := range plan {
		if seg.kind == k {
			out = append(out, float64(jr.walls[i].Nanoseconds())/1e6)
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
