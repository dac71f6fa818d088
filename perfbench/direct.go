package main

import (
	"fmt"
	"runtime"
	"time"

	"hpfnt/hpf"
	"hpfnt/internal/transport"
)

// The direct layer calls: the same loop statements the programs run,
// built and replayed straight through hpf.DistArray / hpf.Schedule on
// fresh arrays of the session's program, bypassing the interpreter.
// Each call is timed on its own, so compile is never timed together
// with replay.

// stmt is one loop statement in direct form.
type stmt struct {
	irregular bool
	build     func() (*hpf.Schedule, error)
}

func seq(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i + 1
	}
	return v
}

// directStats totals one probe's direct calls.
type directStats struct {
	builds, iters, remaps int

	compileNS, compileAllocs int64
	inspectNS                int64
	ghostElems, messages     int64
	replayNS, replayAllocs   int64
	irrReplayNS              int64
	remapNS, remapElems      int64
	// iterNS is the direct equivalent of one interpreted iteration:
	// replay, plus compile where the statements vary by iteration.
	iterNS int64
}

func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// probeDirect materialises fresh copies of the loop arrays on the
// session's program and, for each mapping phase of the job, remaps
// them to that phase's mappings (as a REDISTRIBUTE does), builds the
// loop statements and, when replay is set, runs one phase's worth of
// iterations.
func probeDirect(s *session, w *workload, in inputs, sz size, phases []map[string]hpf.Mapping, replay bool, sp *spans) (*directStats, error) {
	arrs := map[string]*hpf.DistArray{}
	for _, name := range w.arrays {
		a, err := s.prog.NewArray(name)
		if err != nil {
			return nil, err
		}
		a.Fill(func(t hpf.Tuple) float64 {
			v := 1
			for _, x := range t {
				v += x
			}
			return float64(v % 7)
		})
		arrs[name] = a
	}
	// One phase replays one block, or one sweep pass.
	iters := sz.iters
	if w.varying {
		iters = sz.n - 1
	}
	ds := &directStats{}
	for _, maps := range phases {
		if len(phases) > 1 {
			t := time.Now()
			for _, name := range w.arrays {
				n, err := arrs[name].RemapTo(maps[name])
				if err != nil {
					return nil, fmt.Errorf("remap %s: %w", name, err)
				}
				ds.remapElems += int64(n)
			}
			ds.remapNS += sp.since("direct", "RemapTo", t)
			ds.remaps++
		}
		var scheds []*hpf.Schedule
		var stmts []stmt
		for it := 1; it <= iters; it++ {
			if it == 1 || w.varying {
				stmts = w.stmts(arrs, in, sz, it)
				scheds = scheds[:0]
				for _, st := range stmts {
					m0 := mallocs()
					t := time.Now()
					sch, err := st.build()
					if err != nil {
						return nil, err
					}
					if st.irregular {
						ds.inspectNS += sp.since("direct", "NewIrregular", t)
						ds.ghostElems += int64(sch.GhostElements())
						ds.messages += int64(sch.Messages())
					} else {
						d := sp.since("direct", "NewSchedule", t)
						ds.compileNS += d
						ds.compileAllocs += mallocs() - m0
						if w.varying {
							ds.iterNS += d
						}
					}
					scheds = append(scheds, sch)
				}
				ds.builds++
			}
			if !replay {
				continue
			}
			for i, sch := range scheds {
				m0 := mallocs()
				t := time.Now()
				if err := sch.Run(); err != nil {
					return nil, err
				}
				if stmts[i].irregular {
					d := sp.since("direct", "Schedule.Run irregular", t)
					ds.irrReplayNS += d
					ds.iterNS += d
				} else {
					d := sp.since("direct", "Schedule.Run", t)
					ds.replayNS += d
					ds.replayAllocs += mallocs() - m0
					ds.iterNS += d
				}
			}
			ds.iters++
		}
	}
	return ds, nil
}

// probeReduce times DistArray.Reduce on a fresh copy of the
// workload's first loop array, returning the median wall in ns.
func probeReduce(s *session, w *workload, sp *spans) (float64, error) {
	a, err := s.prog.NewArray(w.arrays[0])
	if err != nil {
		return 0, err
	}
	var walls []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := a.Reduce(hpf.Sum); err != nil {
			return 0, err
		}
		walls = append(walls, float64(sp.since("direct", "Reduce", t)))
	}
	return median(walls), nil
}

// probeMessages times Transport.Send followed by Transport.Recv of a
// 64-element message on the rank pair (1,2), returning the median
// per-message wall over batches in ns. The engine is idle, and every
// message is received before the next is sent, so its streams stay
// in step.
func probeMessages(tr transport.Transport, sp *spans) float64 {
	const batch = 500
	msg := make([]float64, 64)
	var per []float64
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < batch; i++ {
			tr.Send(1, 2, msg)
			tr.Recv(1, 2)
		}
		per = append(per, float64(sp.since("direct", "Transport.Send/Recv", t))/batch)
	}
	return median(per)
}
