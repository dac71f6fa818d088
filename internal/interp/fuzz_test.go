package interp_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hpfnt/internal/interp"
)

// fuzzLimits keeps hostile inputs cheap: small arrays, small
// statement budgets.
var fuzzLimits = interp.Options{MaxStatements: 4096, MaxElems: 4096}

// FuzzDirectiveProgram feeds arbitrary text through the whole front
// end — line stripping, lexing, the directive parser and the
// interpreter — and requires that it never panics: malformed programs
// must fail with positioned errors. Corpus programs seed the fuzzer
// so mutations start from well-formed inputs.
func FuzzDirectiveProgram(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "programs", "*.hpf"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		src, err := interp.ReadSource(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add("REAL A(8)\nA(1:9) = A(1:9)\n")
	f.Add("!HPF$ REDISTRIBUTE A(CYCLIC) TO\n")
	f.Add("DO K = 1, 10\nEND DO\n")
	f.Add("FORALL (I = 1:8) A(I) = MOD(I, 0)\n")
	// Value errors only some elements hit, after a compiled FORALL
	// right-hand side: MOD by zero and division by zero.
	f.Add("PROCESSORS P(2)\nREAL A(1:8)\n!HPF$ DISTRIBUTE A(BLOCK) TO P\nFORALL (I = 1:8) A(I) = MOD(I*5, I - 3) + 1\n")
	f.Add("PROCESSORS P(2)\nPARAMETER K = 5\nREAL A(1:4,1:4)\n!HPF$ DISTRIBUTE A(BLOCK,:) TO P\nFORALL (I = 1:4, J = 1:4) A(I,J) = MAX(I, J) / (J - I) - K\n")
	f.Add("PROCESSORS P(4)\nREAL A(1000000000000)\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		cfg := interp.Config{NP: 3, Engine: "sim", Transport: "inproc", Limits: fuzzLimits}
		_, _ = cfg.Run(src) // errors are expected; panics are bugs
	})
}

// genProgram builds a well-formed program from fuzz bytes. Every
// choice is driven by the input, so the fuzzer explores mapping ×
// statement combinations; the program is valid by construction
// (bounded sizes, in-range sections).
func genProgram(data []byte) (src string, np int, wire string) {
	at := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	np = 2 + at(0)%4  // 2..5
	n := 8 + at(1)%17 // 8..24
	wires := []string{"inproc", "shm", "tcp"}
	wire = wires[at(2)%len(wires)]

	format := func(b int) string {
		switch b % 4 {
		case 0:
			return "BLOCK"
		case 1:
			return "CYCLIC"
		case 2:
			return fmt.Sprintf("CYCLIC(%d)", 2+b%3)
		default:
			return "BLOCK"
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PROCESSORS P(%d)\n", np)
	fmt.Fprintf(&b, "PARAMETER N = %d\n", n)
	b.WriteString("REAL A(1:N), B(1:N), C(1:N)\n")
	b.WriteString("!HPF$ DYNAMIC A\n")
	fmt.Fprintf(&b, "!HPF$ DISTRIBUTE A(%s) TO P\n", format(at(3)))
	fmt.Fprintf(&b, "!HPF$ DISTRIBUTE B(%s) TO P\n", format(at(4)))
	fmt.Fprintf(&b, "!HPF$ DISTRIBUTE C(%s) TO P\n", format(at(5)))
	fmt.Fprintf(&b, "FORALL (I = 1:N) A(I) = MOD(I*%d + %d, %d)\n", 1+at(6)%7, at(7)%11, 5+at(8)%9)
	b.WriteString("FORALL (I = 1:N) B(I) = 0\n")
	b.WriteString("FORALL (I = 1:N) C(I) = I\n")

	// A bounded statement mix drawn from the remaining bytes.
	steps := 1 + at(9)%6
	for s := 0; s < steps; s++ {
		c := at(10 + 3*s)
		switch c % 6 {
		case 0: // shifted copy
			b.WriteString("B(2:N) = A(1:N-1)\n")
		case 1: // 3-point stencil in a short loop
			fmt.Fprintf(&b, "DO K = 1, %d\n", 1+at(11+3*s)%4)
			b.WriteString("  B(2:N-1) = 0.5*A(2:N-1) + 0.25*A(1:N-2) + 0.25*A(3:N)\n")
			b.WriteString("END DO\n")
		case 2: // cross-mapping accumulate
			b.WriteString("C(1:N) = C(1:N) + B(1:N)\n")
		case 3: // remap the dynamic array mid-run
			fmt.Fprintf(&b, "!HPF$ REDISTRIBUTE A(%s) TO P\n", format(at(12+3*s)))
		case 4: // strided section copy
			b.WriteString("B(1:N:2) = C(1:N:2)\n")
		case 5: // gather through an indirection vector
			m := 3 + at(13+3*s)%4
			idx := make([]string, m)
			for i := range idx {
				idx[i] = fmt.Sprint(1 + at(14+3*s+i)%n)
			}
			fmt.Fprintf(&b, "PARAMETER V%d = (/%s/)\n", s, strings.Join(idx, ","))
			fmt.Fprintf(&b, "B(%d:%d) = A(V%d)\n", 1, m, s)
		}
	}
	b.WriteString("PRINT SUM(A)\nPRINT SUM(B)\nPRINT SUM(C)\nPRINT MAXVAL(C)\n")
	return b.String(), np, wire
}

// FuzzInterpEquivalence generates well-formed programs and requires
// byte-identical observable results — PRINT output, array values and
// the logical machine report — between the sim/inproc oracle and the
// spmd engine on a fuzz-chosen wire. This is the differential-testing
// contract of the hand-written workloads, applied to generated
// program text.
func FuzzInterpEquivalence(f *testing.F) {
	f.Add([]byte("hpf"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{250, 116, 42, 8, 13, 99, 7, 200, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized input")
		}
		src, np, wire := genProgram(data)
		oracle, err := interp.Config{NP: np, Engine: "sim", Transport: "inproc", Limits: fuzzLimits}.Run(src)
		if err != nil {
			t.Fatalf("generated program rejected by oracle: %v\n%s", err, src)
		}
		got, err := interp.Config{NP: np, Engine: "spmd", Transport: wire, Limits: fuzzLimits}.Run(src)
		if err != nil {
			t.Fatalf("spmd/%s rejected a program the oracle ran: %v\n%s", wire, err, src)
		}
		if oracle.Output != got.Output {
			t.Fatalf("output differs on spmd/%s\noracle:\n%s\ngot:\n%s\nprogram:\n%s", wire, oracle.Output, got.Output, src)
		}
		for _, name := range oracle.Names {
			ov, gv := oracle.Values[name], got.Values[name]
			if len(ov) != len(gv) {
				t.Fatalf("%s: %d elements on oracle, %d on spmd/%s\n%s", name, len(ov), len(gv), wire, src)
			}
			for i := range ov {
				if ov[i] != gv[i] {
					t.Fatalf("%s[%d]: oracle %v, spmd/%s %v\nprogram:\n%s", name, i, ov[i], wire, gv[i], src)
				}
			}
		}
		if ol, gl := oracle.Report.Logical(), got.Report.Logical(); ol != gl {
			t.Fatalf("logical report differs on spmd/%s\noracle: %+v\ngot:    %+v\nprogram:\n%s", wire, ol, gl, src)
		}
	})
}
