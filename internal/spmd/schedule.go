package spmd

import (
	"fmt"
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
// (BuildSchedule, BuildGeneralSchedule) is lhs(region) = Σ terms,
// lowered from owner-tile intersections into run segments where it
// can be and element by element into an indirect segment where it
// cannot; the indirect form (BuildIrregular) is the executor half of
// the inspector–executor technique, lhs(W(k)) = Σ c_k·src(R(k)), and
// is one indirect segment per worker. Execute replays it; the
// involved arrays must not be remapped between executions (rebuild
// after REDISTRIBUTE/REALIGN, as with the sequential runtime's
// schedules).
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

// wplan is one worker's share of a schedule. Its compute half is a
// list of segments of two kinds, all evaluated before any is stored
// (simultaneous-assignment semantics):
//
//   - run segments (runs, shift form only): run i computes n lhs
//     elements at slots lhs + k·lstr, element k reading term t at
//     base + k·stride of srcData[t] or of the ghost buffer, as given
//     by runRefs[i*T+t] with T = len(coeffs). A run evaluates into
//     tmp[tmp:tmp+n] and is stored afterwards — or, when no source
//     is the lhs and its lhs slots are contiguous (tmp < 0), straight
//     into the lhs. The tmp-bound runs fill tmp[:runElems].
//   - the indirect segment (lhsSlots, refs, writeIx): reads refs[j]
//     >= 0 are local slots of a source segment, refs[j] < 0 encode
//     ghost slot -(refs[j]+1). In the shift form (writeIx nil)
//     element i is Σ_t coeffs[t] · ref(i,t), read through refs[i*T+t]
//     from srcData[t]; in the indirect form access j adds coeffs[j] ·
//     ref(j) into element writeIx[j], reading srcData[0]. Element i
//     lands in tmp[runElems+i] and is stored to lhsData[lhsSlots[i]].
type wplan struct {
	lhsData []float64
	srcData [][]float64
	coeffs  []float64

	runs     []run
	runRefs  []runRef
	runElems int

	lhsSlots []int32
	refs     []int32
	writeIx  []int32

	ghost []float64
	tmp   []float64

	sends []sendPlan
	recvs []recvPlan

	load       int
	localRefs  int
	remoteRefs int
}

// run is a run segment: n lhs elements at slots lhs + k·lstr whose
// values are computed into tmp[tmp : tmp+n], or in place when tmp < 0.
// unit marks a run whose terms all read unit-stride slots; it is
// computed by the fused kernel.
type run struct {
	n, lhs, lstr, tmp int32
	unit              bool
}

// runRef is one term's reads in a run segment: slots base + k·stride
// of the term's source segment, or of the ghost buffer when ghost is
// set.
type runRef struct {
	base, stride int32
	ghost        bool
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

// finish marks the statement coalescible when no source is the lhs,
// captures the remap generations, places every run's results (in
// place when the statement cannot read what it writes), sizes every
// worker's ghost and temporary buffers and totals the ghost traffic.
func (s *Schedule) finish() *Schedule {
	s.constGhost = true
	for i, a := range s.arrays {
		s.gens = append(s.gens, a.gen)
		if i > 0 && a == s.arrays[0] {
			s.constGhost = false // statement overwrites its own input
		}
	}
	T := len(s.arrays) - 1
	for _, wp := range s.plans {
		if wp == nil {
			continue
		}
		wp.runElems = 0
		for i := range wp.runs {
			r := &wp.runs[i]
			r.unit = true
			for _, rf := range wp.runRefs[i*T : i*T+T] {
				r.unit = r.unit && rf.stride == 1
			}
			if s.constGhost && r.lstr == 1 {
				r.tmp = -1
				continue
			}
			r.tmp = int32(wp.runElems)
			wp.runElems += int(r.n)
		}
		n := 0
		for _, rp := range wp.recvs {
			n += len(rp.targets)
		}
		// One allocation holds the ghost buffer and the temporary.
		buf := make([]float64, n+wp.runElems+len(wp.lhsSlots))
		wp.ghost, wp.tmp = buf[:n:n], buf[n:]
		s.ghostTotal += n
	}
	return s
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
	return e.compile(lhs, region, cts, true)
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
	return e.compile(lhs, region, cts, true)
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
	timing, tracing := obs.TimingEnabled(), obs.TraceEnabled()
	// Span names are built only when a recorder is installed.
	var span func()
	if tracing {
		span = obs.BeginSpan("epoch", fmt.Sprintf("execute x%d", iters), 0)
	}
	err := e.run(func(p int) {
		wp := s.plans[p]
		if wp == nil {
			return
		}
		// A per-worker epoch span: the skew analysis compares these
		// lanes to find the straggler.
		var wspan func()
		if tracing {
			wspan = obs.BeginSpan("worker", fmt.Sprintf("rank %d x%d", p, iters), p)
		}
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
	wp.computeRuns()
	tmp := wp.tmp[wp.runElems:]
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
			tmp[i] = sum
		}
	} else {
		clear(tmp)
		src := wp.srcData[0]
		for j, r := range wp.refs {
			var v float64
			if r >= 0 {
				v = src[r]
			} else {
				v = wp.ghost[-r-1]
			}
			tmp[wp.writeIx[j]] += wp.coeffs[j] * v
		}
	}
	for i := range wp.runs {
		r := &wp.runs[i]
		if r.tmp < 0 {
			continue // computed in place
		}
		vals := wp.tmp[r.tmp : r.tmp+r.n]
		if r.lstr == 1 {
			copy(wp.lhsData[r.lhs:], vals)
			continue
		}
		j, st := int(r.lhs), int(r.lstr)
		for _, v := range vals {
			wp.lhsData[j] = v
			j += st
		}
	}
	for i, sl := range wp.lhsSlots {
		wp.lhsData[sl] = tmp[i]
	}
	if tally != nil {
		tally[machine.PhaseCompute] += int64(time.Since(t0))
	}
}

// computeRuns evaluates the run segments. Every element starts at 0
// and adds coeff·value per term in term order, the same operation
// sequence as the indirect loop, so both segment kinds produce
// bit-identical values. A unit-stride run goes through the fused
// kernel, one pass per group of up to four terms; a strided one adds
// term by term.
func (wp *wplan) computeRuns() {
	T := len(wp.coeffs)
	for i := range wp.runs {
		r := &wp.runs[i]
		var out []float64
		if r.tmp < 0 {
			out = wp.lhsData[r.lhs : r.lhs+r.n]
		} else {
			out = wp.tmp[r.tmp : r.tmp+r.n]
		}
		refs := wp.runRefs[i*T : i*T+T]
		if r.unit {
			for g := 0; g < T; g += 4 {
				wp.fuse(out, refs[g:min(g+4, T)], g)
			}
			continue
		}
		clear(out)
		for ti, rf := range refs {
			data := wp.srcData[ti]
			if rf.ghost {
				data = wp.ghost
			}
			c := wp.coeffs[ti]
			j, st := int(rf.base), int(rf.stride)
			for k := range out {
				out[k] += c * data[j]
				j += st
			}
		}
	}
}

// fuse adds terms t0 … t0+len(refs)−1 of a unit-stride run into out in
// one pass. Each element's sum starts at 0 for the first group (t0 =
// 0) and at the partial sum already in out for a later one, then adds
// c·v term by term. The inputs are sliced to the run length, so the
// loops carry no bounds checks.
func (wp *wplan) fuse(out []float64, refs []runRef, t0 int) {
	n := len(out)
	var in [4][]float64
	for t, rf := range refs {
		data := wp.srcData[t0+t]
		if rf.ghost {
			data = wp.ghost
		}
		in[t] = data[rf.base : int(rf.base)+n]
	}
	c := wp.coeffs[t0 : t0+len(refs)]
	acc := t0 > 0
	switch len(refs) {
	case 1:
		a, ca := in[0][:n], c[0]
		for k := range out {
			s := 0.0
			if acc {
				s = out[k]
			}
			s += ca * a[k]
			out[k] = s
		}
	case 2:
		a, b, ca, cb := in[0][:n], in[1][:n], c[0], c[1]
		for k := range out {
			s := 0.0
			if acc {
				s = out[k]
			}
			s += ca * a[k]
			s += cb * b[k]
			out[k] = s
		}
	case 3:
		a, b, d := in[0][:n], in[1][:n], in[2][:n]
		ca, cb, cd := c[0], c[1], c[2]
		for k := range out {
			s := 0.0
			if acc {
				s = out[k]
			}
			s += ca * a[k]
			s += cb * b[k]
			s += cd * d[k]
			out[k] = s
		}
	default:
		a, b, d, f := in[0][:n], in[1][:n], in[2][:n], in[3][:n]
		ca, cb, cd, cf := c[0], c[1], c[2], c[3]
		for k := range out {
			s := 0.0
			if acc {
				s = out[k]
			}
			s += ca * a[k]
			s += cb * b[k]
			s += cd * d[k]
			s += cf * f[k]
			out[k] = s
		}
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
