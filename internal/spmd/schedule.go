package spmd

import (
	"fmt"
	"sort"
	"time"

	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
)

// Term is one right-hand-side reference Coeff * Src(t + Shift).
type Term struct {
	Src   *Array
	Shift []int
	Coeff float64
}

// Ref returns a shifted reference term.
func Ref(src *Array, coeff float64, shift ...int) Term {
	return Term{Src: src, Shift: shift, Coeff: coeff}
}

// GeneralTerm is a reference Coeff · Src(Map(t)) with an arbitrary
// (possibly rank-changing) index mapping.
type GeneralTerm struct {
	Src   *Array
	Coeff float64
	Map   func(index.Tuple) index.Tuple
}

// cterm is the compiler's unified term form.
type cterm struct {
	src   *Array
	coeff float64
	shift []int
	mapf  func(index.Tuple) index.Tuple
}

// Schedule is a compiled statement: per-worker compute plans over
// local slots, the per-pair ghost exchange, and the per-worker counter
// deltas. It has two forms behind one executor. The shift form
// (BuildSchedule, BuildGeneralSchedule) is lhs(region) = Σ terms; the
// indirect form (BuildIrregular) is the executor half of the
// inspector–executor technique, lhs(W(k)) = Σ c_k·src(R(k)). Execute
// replays it; the involved arrays must not be remapped between
// executions (rebuild after REDISTRIBUTE/REALIGN, as with the
// sequential runtime's schedules).
type Schedule struct {
	eng        *Engine
	plans      []*wplan
	ghostTotal int
	messages   int
	// constGhost marks a statement none of whose sources is the
	// written array: its ghost data cannot change while an ExecuteN
	// epoch replays it, so the compiled exchange ships each pair's
	// packed frame once per epoch instead of once per iteration
	// (schedule-level coalescing). Logical message accounting is
	// unchanged — the cost model still charges one message per pair
	// per iteration, matching the sequential oracle — only the
	// machine's WireFrames counter sees the saving.
	constGhost bool
	// arrays holds the lhs followed by the sources; gens captures
	// their remap generations at build time, and ExecuteN refuses a
	// stale schedule (its plans index the pre-remap stores).
	arrays []*Array
	gens   []int
}

// wplan is one worker's share of a schedule. Reads refs[j] >= 0 are
// local slots of a source segment; refs[j] < 0 encode ghost slot
// -(refs[j]+1). The compute half has one of two shapes:
//
//   - shift (writeIx nil): for element i, tmp[i] = Σ_t coeffs[t] ·
//     ref(i,t) with ref(i,t) read through refs[i*T+t] from srcData[t],
//     T = len(coeffs);
//   - indirect: access j adds coeffs[j] · ref(j) into tmp[writeIx[j]],
//     reading srcData[0].
//
// Then lhsData[lhsSlots[i]] = tmp[i] (simultaneous-assignment
// semantics).
type wplan struct {
	lhsData  []float64
	lhsSlots []int32
	srcData  [][]float64
	coeffs   []float64
	refs     []int32
	writeIx  []int32
	ghost    []float64
	tmp      []float64

	sends []sendPlan
	recvs []recvPlan

	load       int
	localRefs  int
	remoteRefs int
}

// sendPlan gathers this worker's owned values for one destination: n
// values, part by part, one part per source array.
type sendPlan struct {
	dst   int
	n     int
	parts []sendPart
}

// sendPart is one source array's share of a message: values
// slab[slots[k]] of the sender's segment.
type sendPart struct {
	slab  []float64
	slots []int32
}

// recvPlan scatters one sender's message into the ghost buffer; the
// targets follow the sender's parts in order.
type recvPlan struct {
	src     int
	targets []int32
}

// newSchedule starts a schedule over lhs and its sources.
func (e *Engine) newSchedule(lhs *Array, srcs []*Array) *Schedule {
	return &Schedule{eng: e, plans: make([]*wplan, e.np+1), arrays: append([]*Array{lhs}, srcs...)}
}

// plan returns worker p's plan, binding p's segments of the lhs and
// of every source on first use.
func (s *Schedule) plan(p int) *wplan {
	if s.plans[p] == nil {
		wp := &wplan{lhsData: s.arrays[0].lay.stores[p].data, srcData: make([][]float64, len(s.arrays)-1)}
		for i, a := range s.arrays[1:] {
			wp.srcData[i] = a.lay.stores[p].data
		}
		s.plans[p] = wp
	}
	return s.plans[p]
}

// link adds one ordered pair's exchange: src gathers sp and ships it
// to sp.dst, which scatters the values into ghost slots targets.
func (s *Schedule) link(src int, sp sendPlan, targets []int32) {
	wp := s.plan(src)
	wp.sends = append(wp.sends, sp)
	rp := s.plan(sp.dst)
	rp.recvs = append(rp.recvs, recvPlan{src: src, targets: targets})
	s.messages++
}

// finish sizes every worker's ghost and temporary buffers, totals the
// ghost traffic, captures the remap generations, and marks the
// statement coalescible when no source is the lhs.
func (s *Schedule) finish() *Schedule {
	for _, wp := range s.plans {
		if wp == nil {
			continue
		}
		n := 0
		for _, rp := range wp.recvs {
			n += len(rp.targets)
		}
		wp.ghost = make([]float64, n)
		wp.tmp = make([]float64, len(wp.lhsSlots))
		s.ghostTotal += n
	}
	s.constGhost = true
	for i, a := range s.arrays {
		s.gens = append(s.gens, a.gen)
		if i > 0 && a == s.arrays[0] {
			s.constGhost = false // statement overwrites its own input
		}
	}
	return s
}

// ghostKey dedups remote reads per (source array, element, reader),
// exactly as the sequential per-statement deduplication does.
type ghostKey struct {
	src *Array
	off int
	w   int
}

// exchange accumulates one ordered pair's ghost traffic during
// compilation, grouped by source array: part i gathers slots[i] of
// srcs[i] and scatters into targets[i].
type exchange struct {
	srcs    []*Array
	slots   [][]int32
	targets [][]int32
}

// add appends one ghost element read from src.
func (ex *exchange) add(src *Array, slot, target int32) {
	i := 0
	for i < len(ex.srcs) && ex.srcs[i] != src {
		i++
	}
	if i == len(ex.srcs) {
		ex.srcs = append(ex.srcs, src)
		ex.slots = append(ex.slots, nil)
		ex.targets = append(ex.targets, nil)
	}
	ex.slots[i] = append(ex.slots[i], slot)
	ex.targets[i] = append(ex.targets[i], target)
}

// BuildSchedule compiles the shift statement lhs(region) = Σ terms.
func (e *Engine) BuildSchedule(lhs *Array, region index.Domain, terms []Term) (*Schedule, error) {
	if region.Rank() != lhs.dom.Rank() {
		return nil, fmt.Errorf("spmd: region rank %d does not match %s rank %d", region.Rank(), lhs.name, lhs.dom.Rank())
	}
	cts := make([]cterm, len(terms))
	for i, t := range terms {
		if t.Src.eng != e {
			return nil, fmt.Errorf("spmd: term source %s belongs to a different engine", t.Src.name)
		}
		if len(t.Shift) != lhs.dom.Rank() {
			return nil, fmt.Errorf("spmd: term over %s has shift rank %d, want %d", t.Src.name, len(t.Shift), lhs.dom.Rank())
		}
		cts[i] = cterm{src: t.Src, coeff: t.Coeff, shift: t.Shift}
	}
	return e.compile(lhs, region, cts)
}

// BuildGeneralSchedule compiles a statement with arbitrary per-term
// index mappings.
func (e *Engine) BuildGeneralSchedule(lhs *Array, region index.Domain, terms []GeneralTerm) (*Schedule, error) {
	if region.Rank() != lhs.dom.Rank() {
		return nil, fmt.Errorf("spmd: region rank %d does not match %s rank %d", region.Rank(), lhs.name, lhs.dom.Rank())
	}
	cts := make([]cterm, len(terms))
	for i, t := range terms {
		if t.Src.eng != e {
			return nil, fmt.Errorf("spmd: term source %s belongs to a different engine", t.Src.name)
		}
		cts[i] = cterm{src: t.Src, coeff: t.Coeff, mapf: t.Map}
	}
	return e.compile(lhs, region, cts)
}

// compile walks the region once (column-major, like the sequential
// executor) and partitions the statement into per-worker plans. The
// local/remote classification, remote deduplication, sender choice
// (first owner) and load charging mirror the sequential analysis
// element for element, so the aggregated statistics are identical by
// construction.
func (e *Engine) compile(lhs *Array, region index.Domain, terms []cterm) (*Schedule, error) {
	if lhs.eng != e {
		return nil, fmt.Errorf("spmd: array %s belongs to a different engine", lhs.name)
	}
	T := len(terms)
	srcs := make([]*Array, T)
	coeffs := make([]float64, T)
	for ti, tm := range terms {
		srcs[ti] = tm.src
		coeffs[ti] = tm.coeff
	}
	s := e.newSchedule(lhs, srcs)
	nGhost := make([]int32, e.np+1)
	seen := map[ghostKey]int32{}
	pairEx := map[[2]int]*exchange{}
	ref := make(index.Tuple, lhs.dom.Rank())
	var writers []int
	var ferr error
	region.ForEach(func(t index.Tuple) bool {
		loff, ok := lhs.dom.Offset(t)
		if !ok {
			ferr = fmt.Errorf("spmd: region index %s outside %s domain %s", t, lhs.name, lhs.dom)
			return false
		}
		writers = lhs.lay.appendOwners(writers[:0], loff)
		for ti := range terms {
			tm := &terms[ti]
			var rt index.Tuple
			if tm.mapf != nil {
				rt = tm.mapf(t.Clone())
			} else {
				for d := range t {
					ref[d] = t[d] + tm.shift[d]
				}
				rt = ref
			}
			roff, ok := tm.src.dom.Offset(rt)
			if !ok {
				ferr = fmt.Errorf("spmd: reference %s(%s) out of bounds in assignment to %s(%s)", tm.src.name, rt, lhs.name, t)
				return false
			}
			for _, w := range writers {
				wp := s.plan(w)
				if tm.src.lay.ownedBy(roff, w) {
					wp.localRefs++
					wp.refs = append(wp.refs, tm.src.lay.slotOf(w, roff))
					continue
				}
				wp.remoteRefs++
				key := ghostKey{src: tm.src, off: roff, w: w}
				g, dup := seen[key]
				if !dup {
					g = nGhost[w]
					nGhost[w]++
					seen[key] = g
					sdr := tm.src.lay.firstOwner(roff)
					pr := [2]int{sdr, w}
					ex := pairEx[pr]
					if ex == nil {
						ex = &exchange{}
						pairEx[pr] = ex
					}
					ex.add(tm.src, tm.src.lay.slotOf(sdr, roff), g)
				}
				wp.refs = append(wp.refs, -(g + 1))
			}
		}
		for _, w := range writers {
			wp := s.plan(w)
			wp.load += T
			wp.lhsSlots = append(wp.lhsSlots, lhs.lay.slotOf(w, loff))
		}
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	pairs := make([][2]int, 0, len(pairEx))
	for pr := range pairEx {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pr := range pairs {
		ex := pairEx[pr]
		sp := sendPlan{dst: pr[1], parts: make([]sendPart, len(ex.srcs))}
		targets := ex.targets[0]
		for i, src := range ex.srcs {
			sp.parts[i] = sendPart{slab: src.lay.stores[pr[0]].data, slots: ex.slots[i]}
			sp.n += len(ex.slots[i])
			if i > 0 {
				targets = append(targets, ex.targets[i]...)
			}
		}
		s.link(pr[0], sp, targets)
	}
	// Every shift-form worker shares the per-term coefficients.
	for _, wp := range s.plans {
		if wp != nil {
			wp.coeffs = coeffs
		}
	}
	return s.finish(), nil
}

// GhostElements reports the deduplicated ghost traffic per execution.
func (s *Schedule) GhostElements() int { return s.ghostTotal }

// Messages reports the aggregated messages per execution.
func (s *Schedule) Messages() int { return s.messages }

// Execute runs the statement once across the workers.
func (s *Schedule) Execute() error { return s.ExecuteN(1) }

// ExecuteN runs the statement iters times in one worker epoch. The
// iterations pipeline naturally: per-pair FIFO channels keep each
// receiver's iteration k ghost data consistent with its sender's
// post-(k-1) state, so no global barrier is needed between
// iterations.
func (s *Schedule) ExecuteN(iters int) error {
	if iters < 1 {
		return fmt.Errorf("spmd: ExecuteN needs a positive iteration count, got %d", iters)
	}
	for i, a := range s.arrays {
		if a.gen != s.gens[i] {
			return fmt.Errorf("spmd: schedule over %s invalidated by remap; rebuild it", a.name)
		}
	}
	e := s.eng
	timing := obs.TimingEnabled()
	span := obs.BeginSpan("epoch", fmt.Sprintf("execute x%d", iters), 0)
	err := e.run(func(p int) {
		wp := s.plans[p]
		if wp == nil {
			return
		}
		// A per-worker epoch span: the skew analysis compares these
		// lanes to find the straggler.
		wspan := obs.BeginSpan("worker", fmt.Sprintf("rank %d x%d", p, iters), p)
		var tally *phaseTally
		if timing {
			tally = new(phaseTally)
		}
		for it := 0; it < iters; it++ {
			// Coalescing: a constGhost statement exchanges ghosts only
			// on the first iteration of the epoch; the scattered buffer
			// stays valid for the replays.
			wp.step(e, p, it == 0 || !s.constGhost, tally)
		}
		if wspan != nil {
			wspan()
		}
		c := counters{
			load:       wp.load * iters,
			localRefs:  wp.localRefs * iters,
			remoteRefs: wp.remoteRefs * iters,
			phase:      tally,
		}
		frames := iters
		if s.constGhost {
			frames = 1
		}
		for _, sp := range wp.sends {
			c.sends = append(c.sends, sendCount{dst: sp.dst, elems: sp.n, msgs: iters, frames: frames})
		}
		e.flush(p, &c)
	})
	if span != nil {
		span()
	}
	return err
}

// step is one worker's iteration: gather-and-send all outgoing ghost
// messages, receive and scatter the incoming ones, then compute into
// the temporary and store (whole-statement evaluation before any
// store, Fortran array-assignment semantics). With comm false (a
// coalesced replay) the exchange is skipped and the ghost buffer
// scattered on the epoch's first iteration is reused. A non-nil tally
// splits the iteration's wall time into ghost-wait and compute.
func (wp *wplan) step(e *Engine, p int, comm bool, tally *phaseTally) {
	var t0 time.Time
	if tally != nil {
		t0 = time.Now()
	}
	if comm {
		for i := range wp.sends {
			sp := &wp.sends[i]
			buf := make([]float64, 0, sp.n)
			for _, pt := range sp.parts {
				for _, sl := range pt.slots {
					buf = append(buf, pt.slab[sl])
				}
			}
			e.send(p, sp.dst, buf)
		}
		for i := range wp.recvs {
			rp := &wp.recvs[i]
			msg := e.recv(rp.src, p)
			for k, v := range msg {
				wp.ghost[rp.targets[k]] = v
			}
		}
		if tally != nil {
			now := time.Now()
			tally[machine.PhaseGhostWait] += int64(now.Sub(t0))
			t0 = now
		}
	}
	if wp.writeIx == nil {
		T := len(wp.coeffs)
		for i := range wp.lhsSlots {
			base := i * T
			sum := 0.0
			for ti := 0; ti < T; ti++ {
				idx := wp.refs[base+ti]
				var v float64
				if idx >= 0 {
					v = wp.srcData[ti][idx]
				} else {
					v = wp.ghost[-idx-1]
				}
				sum += wp.coeffs[ti] * v
			}
			wp.tmp[i] = sum
		}
	} else {
		for i := range wp.tmp {
			wp.tmp[i] = 0
		}
		src := wp.srcData[0]
		for j, r := range wp.refs {
			var v float64
			if r >= 0 {
				v = src[r]
			} else {
				v = wp.ghost[-r-1]
			}
			wp.tmp[wp.writeIx[j]] += wp.coeffs[j] * v
		}
	}
	for i, sl := range wp.lhsSlots {
		wp.lhsData[sl] = wp.tmp[i]
	}
	if tally != nil {
		tally[machine.PhaseCompute] += int64(time.Since(t0))
	}
}

// ShiftAssign compiles and executes lhs(region) = Σ terms once.
func (e *Engine) ShiftAssign(lhs *Array, region index.Domain, terms []Term) error {
	s, err := e.BuildSchedule(lhs, region, terms)
	if err != nil {
		return err
	}
	return s.Execute()
}

// GeneralAssign compiles and executes a statement with arbitrary
// per-term index mappings once.
func (e *Engine) GeneralAssign(lhs *Array, region index.Domain, terms []GeneralTerm) error {
	s, err := e.BuildGeneralSchedule(lhs, region, terms)
	if err != nil {
		return err
	}
	return s.Execute()
}
