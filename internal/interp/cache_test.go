package interp

import (
	"testing"
)

// gatherPair runs two gathers whose index vectors hold the same values
// in a different order, and returns Y1 and Y2.
const gatherPair = `
PROCESSORS P(4)
PARAMETER N = 8
PARAMETER OWN = (/1,3,2,4,1,2,3,4/)
PARAMETER COL1 = (/3,1,7,8,5/)
PARAMETER COL2 = (/8,7,5,3,1/)
REAL X(1:N), Y1(1:5), Y2(1:5)
!HPF$ DISTRIBUTE X(INDIRECT(OWN)) TO P
!HPF$ DISTRIBUTE (BLOCK) TO P :: Y1, Y2
FORALL (I = 1:N) X(I) = I*I
FORALL (I = 1:5) Y1(I) = 0
FORALL (I = 1:5) Y2(I) = 0
Y1(1:5) = X(COL1)
Y2(1:5) = X(COL2)
`

func checkGathers(t *testing.T, ip *Interp) {
	t.Helper()
	vals := ip.Values()
	for name, col := range map[string][]int{"Y1": {3, 1, 7, 8, 5}, "Y2": {8, 7, 5, 3, 1}} {
		for i, c := range col {
			if got, want := vals[name][i], float64(c*c); got != want {
				t.Fatalf("%s(%d) = %v, want %v", name, i+1, got, want)
			}
		}
	}
}

// TestIrregularCacheKeysOrder checks that gathers over permutations of
// one index vector each compile their own schedule.
func TestIrregularCacheKeysOrder(t *testing.T) {
	for _, eng := range []string{"sim", "spmd"} {
		prog, err := Config{NP: 4, Engine: eng}.NewProgram()
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		ip := New(prog)
		_, m0 := CacheStats()
		if _, err := ip.Run(gatherPair); err != nil {
			t.Fatal(err)
		}
		checkGathers(t, ip)
		if _, m1 := CacheStats(); m1-m0 != 2 {
			t.Fatalf("%s: %d cache misses, want one per gather", eng, m1-m0)
		}
	}
}

// TestIrregularCacheConfirmsHits plants a colliding cache entry — one
// gather's schedule under the other's key — and checks that the
// lookup refuses it instead of replaying the wrong schedule.
func TestIrregularCacheConfirmsHits(t *testing.T) {
	prog, err := Config{NP: 4, Engine: "spmd"}.NewProgram()
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	ip := New(prog)
	if _, err := ip.Run(gatherPair); err != nil {
		t.Fatal(err)
	}
	checkGathers(t, ip)
	var keys []string
	for k := range ip.scheds {
		if k[0] == 'I' {
			keys = append(keys, k)
		}
	}
	if len(keys) != 2 {
		t.Fatalf("cache holds %d irregular schedules, want 2", len(keys))
	}
	ip.scheds[keys[1]] = ip.scheds[keys[0]]
	_, err = ip.Run(`
FORALL (I = 1:5) Y1(I) = 0
FORALL (I = 1:5) Y2(I) = 0
Y1(1:5) = X(COL1)
Y2(1:5) = X(COL2)
`)
	if err != nil {
		t.Fatal(err)
	}
	checkGathers(t, ip)
}
