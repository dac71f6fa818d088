package spmd

import (
	"testing"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/transport"
)

// TestCoalescedWireFrames checks the schedule-level coalescing
// invariant on every wire, for both schedule forms: a multi-iteration
// epoch of a statement that does not overwrite its own input ships
// exactly one physical frame per active (sender,receiver) pair, while
// the logical message count (the cost model's view) still charges one
// message per pair per iteration — and a self-referencing statement
// keeps frames == messages, since each iteration's ghosts depend on
// the previous stores.
func TestCoalescedWireFrames(t *testing.T) {
	const n, np, iters = 32, 4, 5
	// Ring-plus-stride reads over the column-major offsets: every
	// element reads its neighbour and a far element, guaranteeing
	// cross-worker halo traffic.
	var ring inspector.Pattern
	for i := int32(0); i < n*n; i++ {
		ring.Writes = append(ring.Writes, i, i)
		ring.Reads = append(ring.Reads, (i+1)%(n*n), (i+n*n/2+3)%(n*n))
		ring.Coeffs = append(ring.Coeffs, 1, 0.5)
	}
	interior := index.Standard(2, n-1, 2, n-1)
	forms := []struct {
		name  string
		build func(e *Engine, lhs, src *Array) (*Schedule, error)
	}{
		{"shift", func(e *Engine, lhs, src *Array) (*Schedule, error) {
			return e.BuildSchedule(lhs, interior, []Term{
				Ref(src, 0.25, -1, 0), Ref(src, 0.25, 1, 0), Ref(src, 0.25, 0, -1), Ref(src, 0.25, 0, 1),
			})
		}},
		{"indirect", func(e *Engine, lhs, src *Array) (*Schedule, error) {
			return e.BuildIrregular(lhs, src, ring)
		}},
	}
	for _, kind := range transport.Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr, err := transport.New(kind, np)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewOn(tr, machine.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			sys, _ := proc.NewSystem(np)
			dom := index.Standard(1, n, 1, n)
			a, err := e.NewArray("A", mapping(t, sys, dom, dist.Block{}))
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.NewArray("B", mapping(t, sys, dom, dist.Block{}))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range forms {
				for _, self := range []bool{false, true} {
					name, lhs := f.name, b
					if self {
						// a <- a: the statement overwrites its input;
						// every iteration must exchange fresh ghosts.
						name, lhs = f.name+"-self", a
					}
					t.Run(name, func(t *testing.T) {
						a.Fill(func(tp index.Tuple) float64 { return float64(tp[0]*3 + tp[1]) })
						sched, err := f.build(e, lhs, a)
						if err != nil {
							t.Fatal(err)
						}
						pairs := sched.Messages()
						if pairs == 0 {
							t.Fatal("schedule has no ghost pairs")
						}
						frames := pairs // b <- a: ghost data epoch-constant
						if self {
							frames = pairs * iters
						}
						e.Reset()
						if err := sched.ExecuteN(iters); err != nil {
							t.Fatal(err)
						}
						if got := e.Machine().WireFrames(); got != int64(frames) {
							t.Errorf("epoch: WireFrames = %d, want %d", got, frames)
						}
						if got := e.Stats().Messages; got != int64(pairs*iters) {
							t.Errorf("epoch: logical Messages = %d, want %d (pairs × iters)", got, pairs*iters)
						}
						// A second epoch re-ships (a may have changed
						// between epochs).
						if err := sched.ExecuteN(iters); err != nil {
							t.Fatal(err)
						}
						if got := e.Machine().WireFrames(); got != int64(2*frames) {
							t.Errorf("two epochs: WireFrames = %d, want %d", got, 2*frames)
						}
					})
				}
			}
		})
	}
}
