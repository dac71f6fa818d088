package spmd

import (
	"fmt"
	"sort"

	"hpfnt/internal/core"
	"hpfnt/internal/obs"
	"hpfnt/internal/runtime"
)

// rsend ships this worker's old copies of moved elements to one new
// owner; rrecv scatters them into the destination's new segment.
type rsend struct {
	dst      int
	oldSlots []int32
}

type rrecv struct {
	src      int
	newSlots []int32
}

// rplan is one worker's share of a remap: local old→new copies for
// retained elements plus the per-pair shipments.
type rplan struct {
	copies [][2]int32
	sends  []rsend
	recvs  []rrecv
}

// Remap moves an array to a new element mapping: every worker builds
// its new local segment, keeps the elements it still owns by local
// copy, and receives the rest from the old owners as one aggregated
// message per processor pair. The sender for each (replica set,
// destination) pair follows runtime.RemapSender, so the spmd engine
// and the sequential oracle charge identical traffic. Returns the
// number of elements whose owner set gained a member. Compiled
// schedules over the array are invalidated.
func (e *Engine) Remap(a *Array, newMap core.ElementMapping) (int, error) {
	if a.eng != e {
		return 0, fmt.Errorf("spmd: array %s belongs to a different engine", a.name)
	}
	if !newMap.Domain().Equal(a.dom) {
		return 0, fmt.Errorf("spmd: remap of %s to mapping over %s (have %s)", a.name, newMap.Domain(), a.dom)
	}
	nl, err := buildLayout(e, newMap)
	if err != nil {
		return 0, fmt.Errorf("spmd: remap of %s: %w", a.name, err)
	}
	plans := make([]*rplan, e.np+1)
	planOf := func(p int) *rplan {
		if plans[p] == nil {
			plans[p] = &rplan{}
		}
		return plans[p]
	}
	type pairList struct {
		oldSlots []int32
		newSlots []int32
	}
	pairs := map[[2]int]*pairList{}
	moved := 0
	size := a.dom.Size()
	var oldScratch, newScratch []int
	for off := 0; off < size; off++ {
		oldScratch = a.lay.appendOwners(oldScratch[:0], off)
		newScratch = nl.appendOwners(newScratch[:0], off)
		anyNew := false
		for _, p := range newScratch {
			if containsInt(oldScratch, p) {
				planOf(p).copies = append(planOf(p).copies, [2]int32{a.lay.slotOf(p, off), nl.slotOf(p, off)})
				continue
			}
			anyNew = true
			s := runtime.RemapSender(oldScratch, p)
			pr := [2]int{s, p}
			pl := pairs[pr]
			if pl == nil {
				pl = &pairList{}
				pairs[pr] = pl
			}
			pl.oldSlots = append(pl.oldSlots, a.lay.slotOf(s, off))
			pl.newSlots = append(pl.newSlots, nl.slotOf(p, off))
		}
		if anyNew {
			moved++
		}
	}
	keys := make([][2]int, 0, len(pairs))
	for pr := range pairs {
		keys = append(keys, pr)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, pr := range keys {
		pl := pairs[pr]
		sp := planOf(pr[0])
		sp.sends = append(sp.sends, rsend{dst: pr[1], oldSlots: pl.oldSlots})
		rp := planOf(pr[1])
		rp.recvs = append(rp.recvs, rrecv{src: pr[0], newSlots: pl.newSlots})
	}
	var span func()
	if obs.TraceEnabled() {
		span = obs.BeginSpan("remap", fmt.Sprintf("remap %s", a.name), 0)
	}
	oldLay := a.lay
	err = e.run(func(p int) {
		oldData := oldLay.stores[p].data
		newData := nl.stores[p].data
		wp := plans[p]
		if wp == nil {
			return
		}
		for _, cp := range wp.copies {
			newData[cp[1]] = oldData[cp[0]]
		}
		var c counters
		for i := range wp.sends {
			sp := &wp.sends[i]
			buf := make([]float64, len(sp.oldSlots))
			for k, sl := range sp.oldSlots {
				buf[k] = oldData[sl]
			}
			e.send(p, sp.dst, buf)
			c.sends = append(c.sends, sendCount{dst: sp.dst, elems: len(sp.oldSlots), msgs: 1, frames: 1})
		}
		for i := range wp.recvs {
			rp := &wp.recvs[i]
			msg := e.recv(rp.src, p)
			for k, v := range msg {
				newData[rp.newSlots[k]] = v
			}
		}
		if len(c.sends) > 0 {
			e.flush(p, &c)
		}
	})
	if span != nil {
		span()
	}
	if err != nil {
		return 0, err
	}
	a.lay = nl
	a.mapping = newMap
	a.gen++
	return moved, nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
