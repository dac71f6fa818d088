package spmd

import (
	"errors"
	"fmt"
	"sort"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
)

// store is one worker's local segment of an array: the global offsets
// it holds (in slot order) and the values. The layout comes from the
// owner-tile kernel: tiles in enumeration order, column-major within
// each tile, so block-like mappings get contiguous runs.
type store struct {
	offsets []int32
	data    []float64
}

// layout is the compiled ownership/storage metadata of one mapping:
// who owns each element and where each copy lives. It is compile-time
// metadata only — the values themselves exist solely in the per-worker
// stores.
type layout struct {
	// owners[off] is the single owner, or nil when replicated.
	owners []int32
	// repOwns[off] is the full owner set when replicated.
	repOwns [][]int
	// slotGrid[off] is the owner's slot of a single-owner element.
	slotGrid []int32
	// repSlot[p][off] is worker p's slot of a replicated element.
	repSlot []map[int]int32
	// stores[p] is worker p's segment (index 1..np).
	stores []*store
	// tiles[p] lists worker p's owner tiles in slot order, for the
	// schedule compiler's tile lowering. It is nil for replicated
	// layouts and for fine-grained ones (tiles averaging fewer than
	// minRunElems elements), which compile element by element.
	tiles [][]slotTile
}

// slotTile is one owner tile of a single-owner layout with the slot
// of its first element. Inside the tile slots advance column-major,
// so element t sits at base + Σ_d (t_d − lo_d)·stride_d with stride_0
// = 1 and stride_d = stride_{d−1}·(hi_{d−1} − lo_{d−1} + 1).
type slotTile struct {
	lo, hi []int
	base   int32
}

// strides writes the tile's slot stride per dimension into dst.
func (t *slotTile) strides(dst []int) {
	m := 1
	for d := range t.lo {
		dst[d] = m
		m *= t.hi[d] - t.lo[d] + 1
	}
}

// tileOf returns worker p's owner tile holding slot.
func (l *layout) tileOf(p int, slot int32) *slotTile {
	ts := l.tiles[p]
	i := sort.Search(len(ts), func(i int) bool { return ts[i].base > slot }) - 1
	return &ts[i]
}

// buildLayout derives the local storage layout of a mapping on e: the
// single-owner tile decomposition when one exists, the replicated
// grid otherwise. The slot metadata (offsets, owner grids) is built
// for every rank — all processes of a job derive the identical layout
// — but value storage is allocated only for the ranks this process
// hosts.
func buildLayout(e *Engine, m core.ElementMapping) (*layout, error) {
	np := e.np
	dom := m.Domain()
	size := dom.Size()
	l := &layout{stores: make([]*store, np+1)}
	for p := 1; p <= np; p++ {
		l.stores[p] = &store{}
	}
	tiles, err := core.AppendOwnerTilesOf(nil, m, dom)
	if err == nil {
		l.owners = make([]int32, size)
		l.slotGrid = make([]int32, size)
		var ferr error
		keep := dom.Rank() > 0 && dom.IsStandard() && len(tiles)*minRunElems <= size
		var bounds []int // every kept tile's lo and hi, one allocation
		if keep {
			l.tiles = make([][]slotTile, np+1)
			bounds = make([]int, 2*dom.Rank()*len(tiles))
		}
		// Size every segment's offset list up front.
		counts := make([]int, np+1)
		for _, tl := range tiles {
			if tl.Proc >= 1 && tl.Proc <= np {
				counts[tl.Proc] += tl.Region.Size()
			}
		}
		for p := 1; p <= np; p++ {
			l.stores[p].offsets = make([]int32, 0, counts[p])
		}
		for _, tl := range tiles {
			p := tl.Proc
			if p < 1 || p > np {
				return nil, fmt.Errorf("spmd: mapping owner %d out of range 1..%d", p, np)
			}
			st := l.stores[p]
			if keep {
				r := dom.Rank()
				lt := slotTile{lo: bounds[:r:r], hi: bounds[r : 2*r : 2*r], base: int32(len(st.offsets))}
				bounds = bounds[2*r:]
				for d, tr := range tl.Region.Dims {
					lt.lo[d], lt.hi[d] = tr.Low, tr.High
				}
				l.tiles[p] = append(l.tiles[p], lt)
			}
			tl.Region.ForEach(func(t index.Tuple) bool {
				off, ok := dom.Offset(t)
				if !ok {
					ferr = fmt.Errorf("spmd: tile index %s outside domain %s", t, dom)
					return false
				}
				l.owners[off] = int32(p)
				l.slotGrid[off] = int32(len(st.offsets))
				st.offsets = append(st.offsets, int32(off))
				return true
			})
			if ferr != nil {
				return nil, ferr
			}
		}
	} else if errors.Is(err, dist.ErrMultiOwner) {
		rg, rerr := core.ReplicatedGrid(m)
		if rerr != nil {
			return nil, rerr
		}
		l.repOwns = rg
		l.repSlot = make([]map[int]int32, np+1)
		for off, ps := range rg {
			for _, p := range ps {
				if p < 1 || p > np {
					return nil, fmt.Errorf("spmd: mapping owner %d out of range 1..%d", p, np)
				}
				if l.repSlot[p] == nil {
					l.repSlot[p] = map[int]int32{}
				}
				st := l.stores[p]
				l.repSlot[p][off] = int32(len(st.offsets))
				st.offsets = append(st.offsets, int32(off))
			}
		}
	} else {
		return nil, err
	}
	for p := 1; p <= np; p++ {
		if !e.hosted(p) {
			continue
		}
		st := l.stores[p]
		st.data = make([]float64, len(st.offsets))
	}
	return l, nil
}

// Array is a distributed array on the spmd engine: per-worker local
// segments only, plus the compiled ownership metadata used by the
// schedule compiler and the element accessors.
type Array struct {
	name    string
	dom     index.Domain
	mapping core.ElementMapping
	eng     *Engine
	lay     *layout
	// gen counts remaps; schedules capture it at build time and
	// refuse to replay against a remapped array (their compiled plans
	// point into the pre-remap stores).
	gen int
}

// NewArray materializes a zero-initialized distributed array with
// local-only storage laid out from the mapping's owner tiles.
func (e *Engine) NewArray(name string, m core.ElementMapping) (*Array, error) {
	l, err := buildLayout(e, m)
	if err != nil {
		return nil, fmt.Errorf("spmd: materializing %s: %w", name, err)
	}
	return &Array{name: name, dom: m.Domain(), mapping: m, eng: e, lay: l}, nil
}

// Name returns the array name.
func (a *Array) Name() string { return a.name }

// Domain returns the array's index domain.
func (a *Array) Domain() index.Domain { return a.dom }

// Mapping returns the array's element mapping.
func (a *Array) Mapping() core.ElementMapping { return a.mapping }

// Replicated reports whether any element has more than one owner.
func (a *Array) Replicated() bool { return a.lay.owners == nil }

// appendOwners appends the owner set of the element at offset off.
func (l *layout) appendOwners(dst []int, off int) []int {
	if l.owners != nil {
		return append(dst, int(l.owners[off]))
	}
	return append(dst, l.repOwns[off]...)
}

// firstOwner returns the first owner of the element at offset off.
func (l *layout) firstOwner(off int) int {
	if l.owners != nil {
		return int(l.owners[off])
	}
	return l.repOwns[off][0]
}

// ownedBy reports whether worker p holds the element at offset off.
func (l *layout) ownedBy(off, p int) bool {
	if l.owners != nil {
		return int(l.owners[off]) == p
	}
	for _, o := range l.repOwns[off] {
		if o == p {
			return true
		}
	}
	return false
}

// slotOf returns worker p's slot of the element at offset off; p must
// own the element.
func (l *layout) slotOf(p, off int) int32 {
	if l.owners != nil {
		return l.slotGrid[off]
	}
	return l.repSlot[p][off]
}

// At reads the element at tuple t (from its first owner's segment).
// Only valid between engine operations. On a multi-process transport
// this is a collective — every process calls it at the same point and
// the owner's host broadcasts the value.
func (a *Array) At(t index.Tuple) float64 {
	off, ok := a.dom.Offset(t)
	if !ok {
		panic(fmt.Sprintf("spmd: %s: index %s out of domain %s", a.name, t, a.dom))
	}
	p := a.lay.firstOwner(off)
	tr := a.eng.tr
	if tr.Procs() == 1 {
		return a.lay.stores[p].data[a.lay.slotOf(p, off)]
	}
	var vals []float64
	if a.eng.hosted(p) {
		vals = []float64{a.lay.stores[p].data[a.lay.slotOf(p, off)]}
	}
	out := tr.Bcast(tr.HostOf(p), vals)
	if len(out) == 0 {
		return 0 // failed job
	}
	return out[0]
}

// Set writes the element at tuple t into every owner's copy (each
// process writes the copies it hosts; no communication is needed when
// every process executes the same Set).
func (a *Array) Set(t index.Tuple, v float64) {
	off, ok := a.dom.Offset(t)
	if !ok {
		panic(fmt.Sprintf("spmd: %s: index %s out of domain %s", a.name, t, a.dom))
	}
	var scratch [1]int
	for _, p := range a.lay.appendOwners(scratch[:0], off) {
		if !a.eng.hosted(p) {
			continue
		}
		a.lay.stores[p].data[a.lay.slotOf(p, off)] = v
	}
}

// Fill initializes every element from fn, each worker filling its own
// segment concurrently. fn must be pure: replicated elements are
// computed once per copy, and in a multi-process job every process
// fills only the segments it hosts. Each worker reuses one tuple for
// all its elements, so fn must not retain it. A panic in fn fails the
// engine; the error surfaces from the next dispatched operation.
func (a *Array) Fill(fn func(t index.Tuple) float64) {
	lay, dom := a.lay, a.dom
	// The error is sticky on the engine; Fill itself has no error
	// return in the backend interface.
	_ = a.eng.run(func(p int) {
		st := lay.stores[p]
		t := make(index.Tuple, dom.Rank())
		next := -1 // the offset after t's
		for k, off := range st.offsets {
			// Slots run column-major within each owner tile: step the
			// tuple along a run, recompute it only across a jump.
			if int(off) != next {
				dom.PutTuple(t, int(off))
			} else {
				dom.Step(t)
			}
			next = int(off) + 1
			st.data[k] = fn(t)
		}
	})
}

// Data materializes the dense column-major global value vector (from
// each element's first owner), for verification against the
// sequential oracle. It is not on any hot path. On a multi-process
// transport this is a collective: each rank's segment is broadcast
// from its host, and every process returns the identical vector.
func (a *Array) Data() []float64 {
	out := make([]float64, a.dom.Size())
	tr := a.eng.tr
	if tr.Procs() == 1 {
		for off := range out {
			p := a.lay.firstOwner(off)
			out[off] = a.lay.stores[p].data[a.lay.slotOf(p, off)]
		}
		return out
	}
	// Scatter segments in descending rank order so the lowest-ranked
	// owner's copy lands last, matching the first-owner read of the
	// single-process path for replicated arrays.
	for p := a.eng.np; p >= 1; p-- {
		st := a.lay.stores[p]
		var vals []float64
		if a.eng.hosted(p) {
			vals = st.data
		}
		seg := tr.Bcast(tr.HostOf(p), vals)
		for k, off := range st.offsets {
			if k < len(seg) {
				out[off] = seg[k]
			}
		}
	}
	return out
}
