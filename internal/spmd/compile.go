package spmd

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"hpfnt/internal/index"
)

// minRunElems is the run-length cutoff of the tile lowering. A run
// shorter than this becomes indirect entries instead of a run segment
// (a run's per-term setup costs about as much as a few refs lookups),
// and a layout whose owner tiles average fewer elements keeps no tile
// index, so its statements compile element by element.
const minRunElems = 4

// compile partitions a shift-form statement into per-worker plans.
// Statements over single-owner, coarse-tiled arrays with in-bounds
// shifts lower from owner-tile intersections (lowerTiles); all others
// — replicated arrays, GeneralTerm maps, strided regions, fine-grained
// layouts, out-of-bounds references — take the element walk, as does
// every statement when tiles is false (the tests' oracle). Both
// classify every (element, term) read local or remote against the
// same owners, deduplicate remote reads per (source, element,
// reader) and charge the first owner as sender, so load, reference,
// per-pair element and message counts equal the sequential analysis
// exactly; only the order in which ghost slots are numbered differs,
// and every process derives the same order.
func (e *Engine) compile(lhs *Array, region index.Domain, terms []cterm, tiles bool) (*Schedule, error) {
	if lhs.eng != e {
		return nil, fmt.Errorf("spmd: array %s belongs to a different engine", lhs.name)
	}
	c := newCompiler(e, lhs, region.Rank(), terms)
	defer c.release()
	if !tiles || !c.lowerTiles(region) {
		if err := c.walk(region); err != nil {
			return nil, err
		}
	}
	c.link()
	// Every shift-form worker shares the per-term coefficients.
	coeffs := make([]float64, len(terms))
	for ti, tm := range terms {
		coeffs[ti] = tm.coeff
	}
	for _, wp := range c.s.plans {
		if wp != nil {
			wp.coeffs = coeffs
		}
	}
	return c.s.finish(), nil
}

// compiler is the state of one shift-form compile.
type compiler struct {
	s     *Schedule
	lhs   *Array
	terms []cterm
	rank  int

	// Ghost deduplication: tabs[tabOf[t]] is term t's source table,
	// mapping a source offset to its ghost slot + 1 for the current
	// reader. Workers are lowered one reader at a time into scratch
	// (its exchanges by sender, its run segments); switching readers
	// files that scratch at its final size and clears the touched
	// table entries.
	tabOf   []int
	tabs    []ghostTab
	reader  int
	nGhost  int32
	ex      []*exchange // by sender; nil when the reader reads nothing from it
	spare   []*exchange // filed exchanges, reused by the next reader
	runs    []run
	runRefs []runRef
	pairs   []pairExchange

	// Scratch reused across pieces and cells.
	arena  []int // piece bounds: lo then hi, rank ints each
	stack  []int
	box    []int
	levels [][]piece // term t's pieces of the level-t box
	sel    []piece   // the piece each term reads the current cell from
	boxes  []int     // the level-t box at [2·rank·t, 2·rank·(t+1))
	gs     []int32   // ghost slots per (term, cell element)
	ints   []int
	views  []view // the lhs and each term over the current cell
	starts []int
	steps  []int
}

// ghostTab is one source array's dense ghost-slot table, borrowed
// from the engine's tablePool; touched lists the entries set for the
// current reader.
type ghostTab struct {
	src     *Array
	slot    []int32
	touched []int32
}

// reset zeroes the entries set for the current reader.
func (tb *ghostTab) reset() {
	for _, off := range tb.touched {
		tb.slot[off] = 0
	}
	tb.touched = tb.touched[:0]
}

// tablePool is an engine's free list of dense ghost tables, all zero
// while pooled: a compile resets the entries it set before returning a
// table, so later compiles reuse it instead of allocating one table
// per source array. The mutex makes it safe for concurrent compiles.
type tablePool struct {
	mu   sync.Mutex
	free [][]int32
}

// get returns a zeroed table of n entries: the smallest pooled one
// large enough, or a new one.
func (tp *tablePool) get(n int) []int32 {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	best := -1
	for i, t := range tp.free {
		if cap(t) >= n && (best < 0 || cap(t) < cap(tp.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]int32, n)
	}
	t := tp.free[best]
	last := len(tp.free) - 1
	tp.free[best], tp.free[last] = tp.free[last], nil
	tp.free = tp.free[:last]
	return t[:n]
}

// put returns a zeroed table to the pool.
func (tp *tablePool) put(t []int32) {
	tp.mu.Lock()
	tp.free = append(tp.free, t)
	tp.mu.Unlock()
}

// pairExchange is one ordered pair's filed message: the sender's
// gather plan and the receiver's ghost targets.
type pairExchange struct {
	src     int
	sp      sendPlan
	targets []int32
}

// exchange accumulates the current reader's ghost traffic from one
// sender, grouped by source array: part i gathers slots[i] of srcs[i]
// and scatters into targets[i].
type exchange struct {
	srcs    []*Array
	slots   [][]int32
	targets [][]int32
}

// part returns the index of src's part, adding it on first use.
func (ex *exchange) part(src *Array) int {
	i := 0
	for i < len(ex.srcs) && ex.srcs[i] != src {
		i++
	}
	if i == len(ex.srcs) {
		ex.srcs = append(ex.srcs, src)
		if i < cap(ex.slots) {
			ex.slots, ex.targets = ex.slots[:i+1], ex.targets[:i+1]
			ex.slots[i], ex.targets[i] = ex.slots[i][:0], ex.targets[i][:0]
		} else {
			ex.slots, ex.targets = append(ex.slots, nil), append(ex.targets, nil)
		}
	}
	return i
}

// add appends one ghost element read from src.
func (ex *exchange) add(src *Array, slot, target int32) {
	i := ex.part(src)
	ex.slots[i] = append(ex.slots[i], slot)
	ex.targets[i] = append(ex.targets[i], target)
}

func newCompiler(e *Engine, lhs *Array, rank int, terms []cterm) *compiler {
	srcs := make([]*Array, len(terms))
	for i, tm := range terms {
		srcs[i] = tm.src
	}
	c := &compiler{
		s:     e.newSchedule(lhs, srcs),
		lhs:   lhs,
		terms: terms,
		rank:  rank,
		tabOf: make([]int, len(terms)),
		ex:    make([]*exchange, e.np+1),
	}
	for ti, src := range srcs {
		i := 0
		for i < len(c.tabs) && c.tabs[i].src != src {
			i++
		}
		if i == len(c.tabs) {
			c.tabs = append(c.tabs, ghostTab{src: src})
		}
		c.tabOf[ti] = i
	}
	return c
}

// setReader makes w the worker whose ghost slots are being assigned.
func (c *compiler) setReader(w int) {
	if w == c.reader {
		return
	}
	c.fileReader()
	for i := range c.tabs {
		c.tabs[i].reset()
	}
	c.reader, c.nGhost = w, 0
}

// release resets the ghost tables and returns them to the engine's
// pool.
func (c *compiler) release() {
	for i := range c.tabs {
		tb := &c.tabs[i]
		if tb.slot != nil {
			tb.reset()
			c.s.eng.tables.put(tb.slot)
			tb.slot = nil
		}
	}
}

// fileReader files the current reader's scratch: its run segments
// into its plan and each sender's exchange into one message.
func (c *compiler) fileReader() {
	if len(c.runs) > 0 {
		wp := c.s.plans[c.reader]
		wp.runs, wp.runRefs = slices.Clone(c.runs), slices.Clone(c.runRefs)
		c.runs, c.runRefs = c.runs[:0], c.runRefs[:0]
	}
	for sdr, ex := range c.ex {
		if ex == nil {
			continue
		}
		sp := sendPlan{dst: c.reader, parts: make([]sendPart, len(ex.srcs))}
		for i, src := range ex.srcs {
			sp.parts[i] = sendPart{slab: src.lay.stores[sdr].data, slots: slices.Clone(ex.slots[i])}
			sp.n += len(ex.slots[i])
		}
		targets := make([]int32, 0, sp.n)
		for i := range ex.srcs {
			targets = append(targets, ex.targets[i]...)
		}
		c.pairs = append(c.pairs, pairExchange{src: sdr, sp: sp, targets: targets})
		ex.srcs = ex.srcs[:0]
		c.spare = append(c.spare, ex)
		c.ex[sdr] = nil
	}
}

// ghost returns the current reader's ghost slot for element roff of
// tb's source; fresh reports that the slot was just assigned, and the
// caller must queue the element on its sender's exchange.
func (c *compiler) ghost(tb *ghostTab, roff int) (g int32, fresh bool) {
	if g := tb.slot[roff]; g != 0 {
		return g - 1, false
	}
	g = c.nGhost
	c.nGhost++
	tb.slot[roff] = g + 1
	tb.touched = append(tb.touched, int32(roff))
	return g, true
}

// table returns term t's ghost table, borrowing it on first use.
func (c *compiler) table(t int) *ghostTab {
	tb := &c.tabs[c.tabOf[t]]
	if tb.slot == nil {
		tb.slot = c.s.eng.tables.get(tb.src.dom.Size())
	}
	return tb
}

// exchange returns the current reader's exchange with sender sdr.
func (c *compiler) exchange(sdr int) *exchange {
	if c.ex[sdr] == nil {
		if n := len(c.spare); n > 0 {
			c.ex[sdr], c.spare = c.spare[n-1], c.spare[:n-1]
		} else {
			c.ex[sdr] = &exchange{}
		}
	}
	return c.ex[sdr]
}

// link files the last reader and adds every pair's message to the
// schedule in (sender, receiver) order.
func (c *compiler) link() {
	c.fileReader()
	sort.Slice(c.pairs, func(i, j int) bool {
		if c.pairs[i].src != c.pairs[j].src {
			return c.pairs[i].src < c.pairs[j].src
		}
		return c.pairs[i].sp.dst < c.pairs[j].sp.dst
	})
	for _, pr := range c.pairs {
		c.s.link(pr.src, pr.sp, pr.targets)
	}
}

// pendRef is a remote read the element walk resolves after the walk,
// once per reader: term t's source element roff, whose ghost slot goes
// to refs[pos] of the reader's plan.
type pendRef struct {
	t, roff, pos int32
}

// walk lowers the statement element by element into indirect entries:
// the path for everything lowerTiles declines, and the one that
// reports an out-of-range region index or reference. Remote reads
// are queued per writer and resolved writer by writer, so ghost slots
// follow each reader's first-read order.
func (c *compiler) walk(region index.Domain) error {
	lhs := c.lhs
	T := len(c.terms)
	ref := make(index.Tuple, lhs.dom.Rank())
	pend := make([][]pendRef, len(c.ex))
	var writers []int
	var ferr error
	region.ForEach(func(t index.Tuple) bool {
		loff, ok := lhs.dom.Offset(t)
		if !ok {
			ferr = fmt.Errorf("spmd: region index %s outside %s domain %s", t, lhs.name, lhs.dom)
			return false
		}
		writers = lhs.lay.appendOwners(writers[:0], loff)
		for ti := range c.terms {
			tm := &c.terms[ti]
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
				wp := c.s.plan(w)
				if tm.src.lay.ownedBy(roff, w) {
					wp.localRefs++
					wp.refs = append(wp.refs, tm.src.lay.slotOf(w, roff))
					continue
				}
				wp.remoteRefs++
				pend[w] = append(pend[w], pendRef{t: int32(ti), roff: int32(roff), pos: int32(len(wp.refs))})
				wp.refs = append(wp.refs, 0)
			}
		}
		for _, w := range writers {
			wp := c.s.plan(w)
			wp.load += T
			wp.lhsSlots = append(wp.lhsSlots, lhs.lay.slotOf(w, loff))
		}
		return true
	})
	if ferr != nil {
		return ferr
	}
	for w, prs := range pend {
		if len(prs) == 0 {
			continue
		}
		c.setReader(w)
		refs := c.s.plans[w].refs
		for _, pr := range prs {
			tb, roff := c.table(int(pr.t)), int(pr.roff)
			g, fresh := c.ghost(tb, roff)
			if fresh {
				lay := tb.src.lay
				sdr := lay.firstOwner(roff)
				c.exchange(sdr).add(tb.src, lay.slotOf(sdr, roff), g)
			}
			refs[pr.pos] = -(g + 1)
		}
	}
	return nil
}

// piece is one box of a cut: bounds lo = arena[at:at+rank] and hi =
// arena[at+rank:at+2·rank], all owned by worker p inside tile.
type piece struct {
	at   int
	p    int
	tile *slotTile
}

// lowerTiles lowers the statement from owner-tile intersections, or
// reports false (having done nothing) when the statement is outside
// its reach: a GeneralTerm, a replicated or fine-grained layout, a
// strided or empty region, or a reference out of bounds. The region
// is cut along the lhs owner tiles, and each piece is refined term by
// term — its shifted box cut along the term's source tiles — down to
// cells in which every term reads one local tile or one remote tile.
// Each cell flattens into runs. Only remote elements are visited one
// by one, to deduplicate their ghost slots.
func (c *compiler) lowerTiles(region index.Domain) bool {
	lhs, r := c.lhs, c.rank
	if r == 0 || lhs.lay.tiles == nil || !region.IsStandard() || region.Empty() {
		return false
	}
	lo, hi := make([]int, r), make([]int, r)
	for d, tr := range region.Dims {
		lo[d], hi[d] = tr.Low, tr.High
		if lo[d] < lhs.dom.Dims[d].Low || hi[d] > lhs.dom.Dims[d].High {
			return false
		}
	}
	for _, tm := range c.terms {
		src := tm.src
		if tm.mapf != nil || src.lay.tiles == nil || src.dom.Rank() != r {
			return false
		}
		for d := range lo {
			if lo[d]+tm.shift[d] < src.dom.Dims[d].Low || hi[d]+tm.shift[d] > src.dom.Dims[d].High {
				return false
			}
		}
	}
	T := len(c.terms)
	c.levels, c.sel = make([][]piece, T), make([]piece, T)
	c.boxes, c.ints = make([]int, 2*r*(T+1)), make([]int, 3*r)
	c.views = make([]view, T+1)
	strs := make([]int, (T+1)*r)
	for i := range c.views {
		c.views[i].str = strs[i*r : (i+1)*r]
	}
	c.starts, c.steps = make([]int, T+1), make([]int, T+1)
	pieces := c.cut(nil, lhs, lo, hi)
	// Reader-major order: the ghost tables hold one reader at a time.
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].p < pieces[j].p })
	for _, pc := range pieces {
		c.setReader(pc.p)
		wp := c.s.plan(pc.p)
		box := c.boxes[:2*r]
		copy(box, c.arena[pc.at:pc.at+2*r])
		size := 1
		for d := range r {
			size *= box[r+d] - box[d] + 1
		}
		wp.load += size * T
		c.refine(wp, pc, 0)
	}
	return true
}

// refine cuts the level-t box, a part of lhs piece pc, along term t's
// source tiles and refines each part (shifted back to lhs coordinates)
// by the next term; past the last term the box is a cell.
func (c *compiler) refine(wp *wplan, pc piece, t int) {
	r := c.rank
	box := c.boxes[2*r*t : 2*r*(t+1)]
	if t == len(c.terms) {
		c.lowerCell(wp, pc, box)
		return
	}
	sh := c.terms[t].shift
	sbox := c.ints[:2*r]
	for d := range r {
		sbox[d], sbox[r+d] = box[d]+sh[d], box[r+d]+sh[d]
	}
	mark := len(c.arena)
	c.levels[t] = c.cut(c.levels[t][:0], c.terms[t].src, sbox[:r], sbox[r:])
	next := c.boxes[2*r*(t+1) : 2*r*(t+2)]
	for _, p := range c.levels[t] {
		c.sel[t] = p
		for d := range 2 * r {
			next[d] = c.arena[p.at+d] - sh[d%r]
		}
		c.refine(wp, pc, t+1)
	}
	c.arena = c.arena[:mark]
}

// cut appends the pieces of box [lo, hi] of a's index space split
// along a's owner tiles. It takes the tile holding the box's low
// corner (found from the corner's slot), emits their intersection —
// which starts at the corner — and queues the at most rank boxes of
// the remainder, in a fixed order.
func (c *compiler) cut(dst []piece, a *Array, lo, hi []int) []piece {
	r := c.rank
	stack := append(append(c.stack[:0], lo...), hi...)
	for len(stack) > 0 {
		n := len(stack) - 2*r
		c.box = append(c.box[:0], stack[n:]...)
		stack = stack[:n]
		blo, bhi := c.box[:r], c.box[r:]
		off, mult := 0, 1
		for d, tr := range a.dom.Dims {
			off += (blo[d] - tr.Low) * mult
			mult *= tr.High - tr.Low + 1
		}
		p := int(a.lay.owners[off])
		t := a.lay.tileOf(p, a.lay.slotGrid[off])
		at := len(c.arena)
		c.arena = append(c.arena, blo...)
		for d := range bhi {
			c.arena = append(c.arena, min(bhi[d], t.hi[d]))
		}
		dst = append(dst, piece{at: at, p: p, tile: t})
		phi := c.arena[at+r : at+2*r]
		for d := r - 1; d >= 0; d-- {
			if phi[d] == bhi[d] {
				continue
			}
			// The remainder above the piece in dimension d: the piece's
			// extent below d, the box's above.
			for e := range blo {
				if e == d {
					stack = append(stack, phi[d]+1)
				} else {
					stack = append(stack, blo[e])
				}
			}
			for e := range bhi {
				if e < d {
					stack = append(stack, phi[e])
				} else {
					stack = append(stack, bhi[e])
				}
			}
		}
	}
	c.stack = stack
	return dst
}

// view is one operand of a cell — the lhs or a term — as a slot base
// and per-dimension slot strides over the cell. A ghost operand's
// "slots" index the cell's ghost list gs, which is column-major.
type view struct {
	base  int
	str   []int
	ghost bool
}

// lowerCell lowers the cell box of lhs piece pc: it charges the
// cell's references, assigns ghost slots to its remote elements, and
// flattens it into runs — the first dimension of extent > 1, merged
// with the following ones while every operand stays contiguous across
// them, and one run per index of the rest.
func (c *compiler) lowerCell(wp *wplan, pc piece, box []int) {
	r, T := c.rank, len(c.terms)
	clo, ext := box[:r], c.ints[:r]
	n := 1
	for d := range clo {
		ext[d] = box[r+d] - clo[d] + 1
		n *= ext[d]
	}
	views := c.views
	for i := range views {
		views[i].base, views[i].ghost = 0, false
	}
	lt := pc.tile
	lt.strides(views[0].str)
	for d := range clo {
		views[0].base += (clo[d] - lt.lo[d]) * views[0].str[d]
	}
	views[0].base += int(lt.base)
	if cap(c.gs) < T*n {
		c.gs = make([]int32, T*n)
	}
	gs := c.gs[:T*n]
	for ti, tm := range c.terms {
		v := &views[ti+1]
		tp := c.sel[ti]
		if tp.p == pc.p {
			wp.localRefs += n
			tp.tile.strides(v.str)
			for d := range clo {
				v.base += (clo[d] + tm.shift[d] - tp.tile.lo[d]) * v.str[d]
			}
			v.base += int(tp.tile.base)
			continue
		}
		wp.remoteRefs += n
		v.ghost, v.base = true, ti*n
		m := 1
		for d := range clo {
			v.str[d] = m
			m *= ext[d]
		}
		// Visit the remote elements column-major for their ghost slots;
		// all come from sender tp.p, so its part is looked up once.
		tb := c.table(ti)
		ex := c.exchange(tp.p)
		pi := ex.part(tm.src)
		slots, targets := slices.Grow(ex.slots[pi], n), slices.Grow(ex.targets[pi], n)
		grid := tm.src.lay.slotGrid
		dims := tm.src.dom.Dims
		roff, mult := 0, c.ints[2*r:3*r]
		mm := 1
		for d, tr := range dims {
			mult[d] = mm
			roff += (clo[d] + tm.shift[d] - tr.Low) * mm
			mm *= tr.High - tr.Low + 1
		}
		pos := c.ints[r : 2*r]
		clear(pos)
		for k := 0; k < n; k++ {
			g, fresh := c.ghost(tb, roff)
			if fresh {
				slots, targets = append(slots, grid[roff]), append(targets, g)
			}
			gs[ti*n+k] = g
			for d := 0; d < r; d++ {
				roff += mult[d]
				if pos[d]++; pos[d] < ext[d] {
					break
				}
				roff -= ext[d] * mult[d]
				pos[d] = 0
			}
		}
		ex.slots[pi], ex.targets[pi] = slots, targets
	}

	// Flatten: the run dimension, merged with contiguous followers.
	j := 0
	for j < r && ext[j] == 1 {
		j++
	}
	rd, rn := j, 1
	if j < r {
		rn = ext[j]
		for j++; j < r; j++ {
			if ext[j] == 1 {
				continue
			}
			ok := true
			for i := range views {
				if views[i].str[j] != rn*views[i].str[rd] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			rn *= ext[j]
		}
	}
	// One run per index of the outer dimensions j..r-1.
	starts, steps := c.starts, c.steps
	for i := range views {
		starts[i] = views[i].base
		if rd < r {
			steps[i] = views[i].str[rd]
		}
	}
	outer := c.ints[r : 2*r]
	clear(outer)
	for {
		c.emitRun(wp, rn, gs)
		d := j
		for ; d < r; d++ {
			for i := range views {
				starts[i] += views[i].str[d]
			}
			if outer[d]++; outer[d] < ext[d] {
				break
			}
			for i := range views {
				starts[i] -= ext[d] * views[i].str[d]
			}
			outer[d] = 0
		}
		if d >= r {
			return
		}
	}
}

// emitRun adds one run of n elements: operand i's k-th element is at
// c.starts[i] + k·c.steps[i]. It becomes a run segment when it is at least
// minRunElems long and every ghost operand's slots are affine in k
// (deduplication against earlier reads can break that); otherwise its
// elements become indirect entries.
func (c *compiler) emitRun(wp *wplan, n int, gs []int32) {
	views, starts, steps := c.views, c.starts, c.steps
	T := len(views) - 1
	isRun := n >= minRunElems
	for i := 1; isRun && i <= T; i++ {
		if !views[i].ghost {
			continue
		}
		g0, st := int(gs[starts[i]]), 0
		if n > 1 {
			st = int(gs[starts[i]+steps[i]]) - g0
		}
		for k := 0; k < n; k++ {
			if int(gs[starts[i]+k*steps[i]]) != g0+k*st {
				isRun = false
				break
			}
		}
	}
	if !isRun {
		for k := 0; k < n; k++ {
			wp.lhsSlots = append(wp.lhsSlots, int32(starts[0]+k*steps[0]))
			for i := 1; i <= T; i++ {
				at := starts[i] + k*steps[i]
				if views[i].ghost {
					wp.refs = append(wp.refs, -(gs[at] + 1))
				} else {
					wp.refs = append(wp.refs, int32(at))
				}
			}
		}
		return
	}
	c.runs = append(c.runs, run{n: int32(n), lhs: int32(starts[0]), lstr: int32(steps[0])})
	for i := 1; i <= T; i++ {
		if !views[i].ghost {
			c.runRefs = append(c.runRefs, runRef{base: int32(starts[i]), stride: int32(steps[i])})
			continue
		}
		g0 := int(gs[starts[i]])
		st := int(gs[starts[i]+steps[i]]) - g0
		c.runRefs = append(c.runRefs, runRef{base: int32(g0), stride: int32(st), ghost: true})
	}
}
