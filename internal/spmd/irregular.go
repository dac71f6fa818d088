package spmd

import (
	"fmt"

	"hpfnt/internal/inspector"
)

// BuildIrregular compiles the indirect form of a Schedule, the
// executor side of the inspector–executor technique (package
// inspector): it runs the inspector over the pattern and lowers the
// engine-neutral result — per-worker access plans over element
// offsets plus per-pair deduplicated gather lists — once to local
// store slots. Each execution then performs real communication and no
// ownership analysis, which is where schedule reuse across ExecuteN
// iterations pays. Replicated arrays are refused (no single-owner
// partition exists).
func (e *Engine) BuildIrregular(lhs, src *Array, pat inspector.Pattern) (*Schedule, error) {
	if lhs.eng != e || src.eng != e {
		return nil, fmt.Errorf("spmd: irregular statement arrays belong to a different engine")
	}
	if lhs.lay.owners == nil || src.lay.owners == nil {
		return nil, fmt.Errorf("spmd: %s", inspector.ErrReplicated)
	}
	sched, err := inspector.Build(e.np, lhs.lay.owners, src.lay.owners, pat)
	if err != nil {
		return nil, err
	}
	s := e.newSchedule(lhs, []*Array{src})
	for p := 1; p <= e.np; p++ {
		pl := sched.Plans[p]
		if pl == nil {
			continue
		}
		wp := s.plan(p)
		wp.lhsSlots = make([]int32, len(pl.Outs))
		for i, off := range pl.Outs {
			wp.lhsSlots[i] = lhs.lay.slotOf(p, int(off))
		}
		wp.writeIx = pl.WriteIx
		wp.coeffs = pl.Coeffs
		wp.refs = make([]int32, len(pl.Reads))
		for j, r := range pl.Reads {
			if r >= 0 {
				wp.refs[j] = src.lay.slotOf(p, int(r))
			} else {
				wp.refs[j] = r
			}
		}
		wp.load = pl.Load
		wp.localRefs = pl.LocalRefs
		wp.remoteRefs = pl.RemoteRefs
	}
	for _, pr := range sched.Pairs {
		slots := make([]int32, len(pr.Offsets))
		for i, off := range pr.Offsets {
			slots[i] = src.lay.slotOf(pr.Src, int(off))
		}
		part := sendPart{slab: src.lay.stores[pr.Src].data, slots: slots}
		s.link(pr.Src, sendPlan{dst: pr.Dst, n: len(slots), parts: []sendPart{part}}, pr.Targets)
	}
	return s.finish(), nil
}
