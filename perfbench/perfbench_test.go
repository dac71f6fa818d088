package main

import (
	"reflect"
	"slices"
	"testing"

	"hpfnt/internal/engine"
)

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := w.gen(7, w.full), w.gen(7, w.full)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different input sets", w.name)
		}
		if reflect.DeepEqual(a, w.gen(8, w.full)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

func TestGatherVectorsWellFormed(t *testing.T) {
	w, _ := workloadByName("gather")
	sz := w.full
	in := w.gen(3, sz)
	for _, name := range []string{"OWNA", "OWNB"} {
		v := in.arrays[name]
		if len(v) != sz.n || slices.Min(v) < 1 || slices.Max(v) > np {
			t.Errorf("%s: want %d owners in 1..%d", name, sz.n, np)
		}
	}
	if col := in.arrays["COL"]; len(col) != sz.m || slices.Min(col) < 1 || slices.Max(col) > sz.n {
		t.Errorf("COL: want %d indices in 1..%d", sz.m, sz.n)
	}
	perm := slices.Clone(in.arrays["PERM"])
	slices.Sort(perm)
	if !slices.Equal(perm, seq(sz.n)) {
		t.Errorf("PERM is not a permutation of 1..%d", sz.n)
	}
}

// TestTinyMatchesReference runs every workload at its tiny size on
// both engines and checks the printed values against the reference
// kernel.
func TestTinyMatchesReference(t *testing.T) {
	for _, w := range workloads {
		for _, kind := range engine.Kinds() {
			for _, seed := range []uint64{1, 2} {
				in := w.gen(seed, w.tiny)
				jr, s, err := runJob(w, w.plan(w.tiny), in, kind, hooks{})
				if err != nil {
					t.Fatalf("%s on %s, seed %d: %v", w.name, kind, seed, err)
				}
				s.close()
				if err := checkOutput(jr.output, w.ref(in, w.tiny).values); err != nil {
					t.Errorf("%s on %s, seed %d: %v", w.name, kind, seed, err)
				}
			}
		}
	}
}

// TestSegmentedMatchesWhole checks that running a program as
// consecutive Interp.Run segments prints exactly what one Run of the
// whole text prints.
func TestSegmentedMatchesWhole(t *testing.T) {
	for _, w := range workloads {
		in := w.gen(5, w.tiny)
		plan := w.plan(w.tiny)
		jr, s, err := runJob(w, plan, in, engine.SPMD, hooks{})
		if err != nil {
			t.Fatalf("%s segmented: %v", w.name, err)
		}
		s.close()
		whole, err := bringUp(w, in, engine.SPMD)
		if err != nil {
			t.Fatal(err)
		}
		res, err := whole.ip.Run(source(plan))
		whole.close()
		if err != nil {
			t.Fatalf("%s whole: %v", w.name, err)
		}
		if jr.output != res.Output {
			t.Errorf("%s: segmented output\n%s\ndiffers from whole-program output\n%s", w.name, jr.output, res.Output)
		}
	}
}

// TestCheckOutputRejectsWrongValues guards the correctness check
// itself.
func TestCheckOutputRejectsWrongValues(t *testing.T) {
	want := []float64{10, 2.5}
	if err := checkOutput("SUM(U) = 10\nU(2,2) = 2.5\n", want); err != nil {
		t.Errorf("matching output rejected: %v", err)
	}
	for _, out := range []string{
		"SUM(U) = 10\nU(2,2) = 2.6\n",
		"SUM(U) = 10\n",
		"SUM(U) = 10\nU(2,2) = x\n",
	} {
		if checkOutput(out, want) == nil {
			t.Errorf("wrong output %q accepted", out)
		}
	}
}

// TestBlocksEqualWork checks that every equal-work block of a plan
// runs the same number of loop iterations.
func TestBlocksEqualWork(t *testing.T) {
	for _, w := range workloads {
		iters := map[int]int{}
		for _, seg := range w.plan(w.full) {
			if seg.kind == segLoop {
				iters[seg.group] += seg.iters
			}
		}
		if len(iters) < 2 {
			t.Errorf("%s: %d blocks, want at least 2", w.name, len(iters))
		}
		for g, n := range iters {
			if n != iters[0] {
				t.Errorf("%s: block %d runs %d iterations, block 0 runs %d", w.name, g, n, iters[0])
			}
		}
	}
}
