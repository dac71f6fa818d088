package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"hpfnt/internal/interp"
)

// exprProgram fills A(1:12) from a FORALL over I; the FORALL is on
// line 6.
func exprProgram(expr string) string {
	return fmt.Sprintf(`PROCESSORS P(4)
PARAMETER N = 12
PARAMETER K = 5
REAL A(1:N)
!HPF$ DISTRIBUTE A(BLOCK) TO P
FORALL (I = 1:N) A(I) = %s
`, expr)
}

// TestCompiledIntExpr checks the compiled integer expressions, per
// element of a FORALL and folded to constants elsewhere, against Go's
// integer arithmetic on both engines.
func TestCompiledIntExpr(t *testing.T) {
	deep := strings.Repeat("(", 64) + "I + K" + strings.Repeat(")", 64)
	cases := []struct {
		expr string
		want func(i int) int
	}{
		{"I", func(i int) int { return i }},
		{"I + 3 - K", func(i int) int { return i + 3 - 5 }},
		{"I * K - 7 * I", func(i int) int { return i*5 - 7*i }},
		{"(I * 7) / 3", func(i int) int { return i * 7 / 3 }},
		{"-I / 2", func(i int) int { return -i / 2 }},
		{"100 / I / 2", func(i int) int { return 100 / i / 2 }},
		{"- - I + +K", func(i int) int { return i + 5 }},
		{"-(I - N)", func(i int) int { return -(i - 12) }},
		{"2*(I+1)*(I-1) - I*I", func(i int) int { return 2*(i+1)*(i-1) - i*i }},
		{"MOD(I*K + 3, 7)", func(i int) int { return (i*5 + 3) % 7 }},
		{"MOD(-I, 4)", func(i int) int { return -i % 4 }},
		{"MOD(I, -3)", func(i int) int { return i % -3 }},
		{"MIN(I, 6, K + 2)", func(i int) int { return min(i, 6, 7) }},
		{"MAX(I - K, 0, -I)", func(i int) int { return max(i-5, 0, -i) }},
		{"MAX(MIN(I, 8), MOD(N, K))", func(i int) int { return max(min(i, 8), 12%5) }},
		{"N - I + 1", func(i int) int { return 12 - i + 1 }},
		{"K * 3", func(int) int { return 15 }},
		{deep, func(i int) int { return i + 5 }},
	}
	for _, tc := range cases {
		want := make([]float64, 12)
		for i := range want {
			want[i] = float64(tc.want(i + 1))
		}
		for _, eng := range []string{"sim", "spmd"} {
			res, err := interp.Config{NP: 4, Engine: eng}.Run(exprProgram(tc.expr))
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.expr, eng, err)
			}
			for i, v := range res.Values["A"] {
				if v != want[i] {
					t.Fatalf("%s on %s: A(%d) = %v, want %v", tc.expr, eng, i+1, v, want[i])
				}
			}
		}
	}
	// The same grammar at variable-free sites: section bounds and a
	// PRINT subscript.
	deepK := strings.Repeat("(", 64) + "K + 1" + strings.Repeat(")", 64)
	for _, eng := range []string{"sim", "spmd"} {
		res, err := interp.Config{NP: 4, Engine: eng}.Run(exprProgram("I") +
			"A(MIN(N, 2*K) - MOD(7, K):MAX(3, N / 2) + 4) = 2*A(1:-(-3))\nPRINT A(" + deepK + ")\nPRINT A(10)\n")
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if want := "A(6) = 6\nA(10) = 6\n"; res.Output != want {
			t.Fatalf("%s: output %q, want %q", eng, res.Output, want)
		}
	}
}

// TestCompiledIntExprErrors pins the error texts: syntax errors and
// constant value errors fail before the fill, and a value error hit
// by only some elements gives 0 for those elements and surfaces once
// after the fill, with the same text on both engines.
func TestCompiledIntExprErrors(t *testing.T) {
	deep := strings.Repeat("(", 65) + "I" + strings.Repeat(")", 65)
	cases := []struct {
		expr, want string
		zeros      []int // the elements that hit the error (1-based)
	}{
		{deep, "interp: line 6: expression nested deeper than 64", nil},
		{"MOD(I)", "interp: line 6: MOD requires at least two arguments", nil},
		{"MOD(I, 2, 3)", "interp: line 6: MOD takes exactly two arguments", nil},
		{"I + Q", `interp: line 6: unknown identifier "Q" in expression (not a parameter or loop variable; column 29)`, nil},
		{"MOD(I, K - 5)", "interp: line 6: MOD by zero", nil},
		{"I / (K - 5)", "interp: line 6: division by zero", nil},
		{"MOD(I, I - 3) + 50", "interp: line 6: MOD by zero", []int{3}},
		{"24 / (I - 5) + 24 / (I - 9) + 100", "interp: line 6: division by zero", []int{5, 9}},
	}
	for _, tc := range cases {
		for _, eng := range []string{"sim", "spmd"} {
			prog, err := interp.Config{NP: 4, Engine: eng}.NewProgram()
			if err != nil {
				t.Fatal(err)
			}
			ip := interp.New(prog)
			_, err = ip.Run(exprProgram(tc.expr))
			if err == nil || err.Error() != tc.want {
				prog.Close()
				t.Fatalf("%s on %s: error %v, want %q", tc.expr, eng, err, tc.want)
			}
			if tc.zeros != nil {
				vals := ip.Values()["A"]
				for i, v := range vals {
					hit := false
					for _, z := range tc.zeros {
						hit = hit || z == i+1
					}
					if (v == 0) != hit {
						t.Errorf("%s on %s: A(%d) = %v after the fill; want 0 exactly where the error hit", tc.expr, eng, i+1, v)
					}
				}
			}
			prog.Close()
		}
	}
}

// TestForallAllocs bounds a 256² FORALL's allocations far below one
// per element: the right-hand side compiles once and each element
// only evaluates it.
func TestForallAllocs(t *testing.T) {
	prog, err := interp.Config{NP: 4, Engine: "spmd"}.NewProgram()
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	ip := interp.New(prog)
	if _, err := ip.Run("PROCESSORS P(4)\nREAL U(1:256,1:256)\n!HPF$ DISTRIBUTE (BLOCK,:) :: U\n"); err != nil {
		t.Fatal(err)
	}
	const fill = "FORALL (I = 1:256, J = 1:256) U(I,J) = MOD(I*3 + J*J, 11) - MAX(I, J) / 7\n"
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ip.Run(fill); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1024 {
		t.Fatalf("a 256x256 FORALL allocates %.0f times, want at most 1024 (65536 elements)", allocs)
	}
	t.Logf("256x256 FORALL: %.0f allocs", allocs)
	want := float64((200*3+17*17)%11 - 200/7)
	if got := ip.Values()["U"][199+16*256]; got != want {
		t.Fatalf("U(200,17) = %v, want %v", got, want)
	}
}
