package spmd

import (
	"fmt"
	"time"

	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/runtime"
)

// treeStep is one round of the combine tree for one worker: send the
// running partial to peer, or receive peer's partial and fold it in.
type treeStep struct {
	send bool
	peer int
}

// Reduce computes a global reduction across the workers: each worker
// folds its owned elements (replicated elements count once, at their
// first owner) in ascending global-offset order, then the partials
// combine along the same binary tree the sequential runtime charges —
// ⌈log2 k⌉ rounds of single-element messages — so both the float
// result and the machine statistics are bit-identical to the oracle.
func (e *Engine) Reduce(a *Array, op runtime.ReduceOp) (float64, error) {
	if a.eng != e {
		return 0, fmt.Errorf("spmd: array %s belongs to a different engine", a.name)
	}
	size := a.dom.Size()
	slots := make([][]int32, e.np+1)
	for off := 0; off < size; off++ {
		p := a.lay.firstOwner(off)
		slots[p] = append(slots[p], a.lay.slotOf(p, off))
	}
	var active []int
	for p := 1; p <= e.np; p++ {
		if len(slots[p]) > 0 {
			active = append(active, p)
		}
	}
	if len(active) == 0 {
		return 0, fmt.Errorf("spmd: reduction over empty array %s", a.name)
	}
	steps := make([][]treeStep, e.np+1)
	procs := append([]int(nil), active...)
	for len(procs) > 1 {
		var next []int
		for i := 0; i+1 < len(procs); i += 2 {
			src, dst := procs[i+1], procs[i]
			steps[src] = append(steps[src], treeStep{send: true, peer: dst})
			steps[dst] = append(steps[dst], treeStep{send: false, peer: src})
			next = append(next, dst)
		}
		if len(procs)%2 == 1 {
			next = append(next, procs[len(procs)-1])
		}
		procs = next
	}
	root := procs[0]
	acc := func(cur, v float64) float64 {
		switch op {
		case runtime.ReduceSum:
			return cur + v
		case runtime.ReduceMax:
			if v > cur {
				return v
			}
			return cur
		case runtime.ReduceMin:
			if v < cur {
				return v
			}
			return cur
		}
		return cur
	}
	var result float64
	timing := obs.TimingEnabled()
	var span func()
	if obs.TraceEnabled() {
		span = obs.BeginSpan("reduce", fmt.Sprintf("reduce %s", a.name), 0)
	}
	err := e.run(func(p int) {
		sl := slots[p]
		if len(sl) == 0 {
			return
		}
		var t0 time.Time
		if timing {
			t0 = time.Now()
		}
		// sl is in ascending global-offset order (the append walk
		// above), which is the fold order defining the float result.
		data := a.lay.stores[p].data
		partial := data[sl[0]]
		for _, s := range sl[1:] {
			partial = acc(partial, data[s])
		}
		var c counters
		c.load = len(sl)
		for _, st := range steps[p] {
			if st.send {
				e.send(p, st.peer, []float64{partial})
				c.sends = append(c.sends, sendCount{dst: st.peer, elems: 1, msgs: 1, frames: 1})
				continue
			}
			msg := e.recv(st.peer, p)
			partial = acc(partial, msg[0])
		}
		if p == root {
			// Published to the dispatcher through the epoch barrier.
			result = partial
		}
		if timing {
			var tally phaseTally
			tally[machine.PhaseReduce] = int64(time.Since(t0))
			c.phase = &tally
		}
		e.flush(p, &c)
	})
	if span != nil {
		span()
	}
	if err != nil {
		return 0, err
	}
	// On a multi-process transport the tree root's host broadcasts
	// the result so every process's dispatcher returns the same value
	// (the broadcast is job bookkeeping, not modelled communication —
	// the oracle charges only the combine tree).
	if tr := e.tr; tr.Procs() > 1 {
		var vals []float64
		if e.hosted(root) {
			vals = []float64{result}
		}
		out := tr.Bcast(tr.HostOf(root), vals)
		if err := tr.Err(); err != nil {
			return 0, err
		}
		if len(out) == 1 {
			result = out[0]
		}
	}
	return result, nil
}
