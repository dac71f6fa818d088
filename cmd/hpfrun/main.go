// Command hpfrun executes a directive-language program — the paper's
// !HPF$ mapping directives plus the executable statement subset of
// package interp (array assignments over sections, FORALL, bounded DO
// loops, indirection-vector gathers, PRINT) — on any engine and any
// wire, printing the program's PRINT output and, on request, the
// machine report the mapping induced.
//
// Usage:
//
//	hpfrun examples/quickstart.hpf
//	hpfrun -engine spmd -transport shm -report prog.hpf
//	hpfrun -np 8 -param N=64,ITERS=10 -  (program on stdin)
//
//	# the same program as a real 4-process job over localhost sockets,
//	# leader verifies against the in-process engine:
//	hpfrun -spawn -procs 4 -transport tcp prog.hpf
//
// A program file may pin its own defaults with an options line:
//
//	!hpfrun: -np 6 -param N=48,ITERS=5
//
// Explicit flags win over the file's options.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"hpfnt/hpf"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/transport"
)

var (
	engineKind = flag.String("engine", "", "execution backend: sim or spmd (default: session default)")
	wire       = flag.String("transport", "", "spmd wire: inproc, shm or tcp (default: session default)")
	np         = flag.Int("np", 0, "abstract processor count (default: the program's !hpfrun: line, else 8)")
	params     = flag.String("param", "", "comma-separated NAME=VALUE integer parameters")
	vienna     = flag.Bool("vienna", false, "use the Vienna Fortran BLOCK definition")
	templates  = flag.Bool("templates", false, "enable the HPF baseline TEMPLATE directive")
	report     = flag.Bool("report", false, "print the logical machine report after the run")
	values     = flag.Bool("values", false, "print per-array element counts and checksums after the run")
	maxStmts   = flag.Int("max-statements", 0, "executed-statement budget (0 = default)")
	maxElems   = flag.Int("max-elems", 0, "per-array element cap (0 = default)")

	spawn    = flag.Bool("spawn", false, "run as a real multi-process job: spawn the other -procs processes on localhost")
	procs    = flag.Int("procs", 2, "number of OS processes in the multi-process job")
	self     = flag.Int("self", 0, "this process's index in the job (0 = leader)")
	job      = flag.String("job", "hpfrun", "job name; all members must agree")
	addr     = flag.String("addr", "127.0.0.1:0", "tcp rendezvous address (port 0 auto-picks; only useful with -spawn)")
	timeout  = flag.Duration("timeout", 30*time.Second, "multi-process bootstrap timeout and child-reap bound")
	noverify = flag.Bool("noverify", false, "leader: skip the in-process verification run")
)

func main() { os.Exit(run()) }

func run() int {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hpfrun [flags] program.hpf  (use - for stdin)")
		return 2
	}
	path := flag.Arg(0)
	src, err := interp.ReadSource(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	cfg := interp.Config{
		Name:      "main",
		NP:        *np,
		Engine:    *engineKind,
		Transport: *wire,
		Vienna:    *vienna,
		Templates: *templates,
		Params:    map[string]int{},
		Limits:    interp.Options{MaxStatements: *maxStmts, MaxElems: *maxElems},
	}
	if err := interp.ParseParams(*params, cfg.Params); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	if err := interp.ScanFileOptions(src, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	if *spawn || *self != 0 {
		if path == "-" {
			fmt.Fprintln(os.Stderr, "hpfrun: a multi-process job needs a program file, not stdin (every process re-reads it)")
			return 1
		}
		return runJob(path, src, cfg)
	}
	res, err := cfg.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	printResult(res)
	return 0
}

// printResult writes the program's observable output, then the
// optional report and value summaries.
func printResult(res *interp.Result) {
	fmt.Print(res.Output)
	if *values {
		for _, name := range res.SortedNames() {
			sum := 0.0
			for _, v := range res.Values[name] {
				sum += v
			}
			fmt.Printf("array %s n=%d checksum=%.17g\n", name, len(res.Values[name]), sum)
		}
	}
	if *report {
		fmt.Printf("report: %s\n", res.Report.Logical())
	}
}

// runJob executes the program as a real multi-process spmd job over
// the tcp or shm wire: every process interprets the same statement
// stream in lockstep (replicated control), array values live only on
// their hosting process, and all ghost/remap/gather traffic crosses
// the wire. The leader re-runs the program on the in-process engine
// and demands byte-identical output, values and logical report.
func runJob(path, src string, cfg interp.Config) int {
	if *wire != transport.TCP && *wire != transport.Shm {
		fmt.Fprintf(os.Stderr, "hpfrun: a multi-process job needs -transport tcp or shm (got %q)\n", *wire)
		return 1
	}
	if *procs < 2 {
		fmt.Fprintln(os.Stderr, "hpfrun: -procs must be at least 2")
		return 1
	}
	if cfg.NP == 0 {
		cfg.NP = 8
	}
	rendezvous := *addr
	var kids []*exec.Cmd
	if *spawn {
		if *self != 0 {
			fmt.Fprintln(os.Stderr, "hpfrun: -spawn is only valid on the leader (-self 0)")
			return 1
		}
		if *wire == transport.TCP {
			var err error
			if rendezvous, err = resolveAddr(rendezvous); err != nil {
				fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
				return 1
			}
		}
		var err error
		if kids, err = spawnPeers(path, rendezvous, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
			return 1
		}
	}
	code := runMember(src, rendezvous, cfg)
	if code != 0 {
		for _, c := range kids {
			if c.Process != nil {
				c.Process.Kill()
			}
		}
	}
	for i, c := range kids {
		if err := waitBounded(c, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "hpfrun: worker process %d: %v\n", i+1, err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

// runMember is one process's life in the job: join the wire, build
// the engine and program over it, and interpret the statement stream
// in lockstep with the other members.
func runMember(src, rendezvous string, cfg interp.Config) int {
	tr, err := dialWire(rendezvous, cfg.NP)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[%d]: %v\n", *self, err)
		return 1
	}
	eng, err := engine.NewSPMDOn(tr, machine.DefaultCost())
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[%d]: %v\n", *self, err)
		return 1
	}
	defer eng.Close()
	prog, err := hpf.NewProgramOn(cfg.Name, eng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[%d]: %v\n", *self, err)
		return 1
	}
	cfg.Apply(prog)
	ip := interp.NewWith(prog, cfg.Limits)
	res, err := ip.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[%d]: %v\n", *self, err)
		return 1
	}
	// A collective: every member gathers the values, the leader keeps
	// them for verification.
	res.Values = ip.Values()
	if *self != 0 {
		return 0
	}
	lo, hi := transport.RanksOf(cfg.NP, *procs, *self)
	fmt.Printf("hpfrun[0]: job %q over %s: %d procs, leader hosts ranks %d..%d of %d\n",
		*job, *wire, *procs, lo, hi, cfg.NP)
	printResult(res)
	if *noverify {
		return 0
	}
	want, err := interp.Config{
		Name: cfg.Name, NP: cfg.NP, Engine: engine.SPMD, Transport: engine.InprocTransport,
		Vienna: cfg.Vienna, Templates: cfg.Templates, Params: cfg.Params,
		ParamArrays: cfg.ParamArrays, Limits: cfg.Limits,
	}.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[0]: verification run: %v\n", err)
		return 1
	}
	if err := sameResult(want, res); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[0]: VERIFY FAILED: %v\n", err)
		return 1
	}
	fmt.Printf("hpfrun[0]: verified on the %s wire against the in-process engine (output, values and report identical)\n", *wire)
	return 0
}

// sameResult enforces the identity contract between the distributed
// run and the in-process reference.
func sameResult(want, got *interp.Result) error {
	if want.Output != got.Output {
		return fmt.Errorf("output mismatch:\n  in-process:\n%s  job:\n%s", want.Output, got.Output)
	}
	if len(want.Names) != len(got.Names) {
		return fmt.Errorf("materialized %v in-process, %v in the job", want.Names, got.Names)
	}
	for _, name := range want.Names {
		wv, gv := want.Values[name], got.Values[name]
		if len(wv) != len(gv) {
			return fmt.Errorf("%s: %d elements in-process, %d in the job", name, len(wv), len(gv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				return fmt.Errorf("%s[%d]: in-process %g, job %g", name, i, wv[i], gv[i])
			}
		}
	}
	if wl, gl := want.Report.Logical(), got.Report.Logical(); wl != gl {
		return fmt.Errorf("report mismatch:\n  in-process %+v\n  job        %+v", wl, gl)
	}
	return nil
}

// dialWire joins the job's wire.
func dialWire(rendezvous string, np int) (transport.Transport, error) {
	switch *wire {
	case transport.TCP:
		return transport.NewTCP(transport.TCPConfig{
			Job: *job, NP: np, Procs: *procs, Self: *self,
			Generation: 1, Addr: rendezvous, Timeout: *timeout,
		})
	case transport.Shm:
		return transport.NewShm(transport.ShmConfig{
			Job: *job, NP: np, Procs: *procs, Self: *self,
			Generation: 1, Timeout: *timeout,
		})
	default:
		return nil, fmt.Errorf("unknown -transport %q", *wire)
	}
}

// resolveAddr replaces a ":0" rendezvous port with a concrete free
// one, so the spawned peers can be told where to dial.
func resolveAddr(a string) (string, error) {
	ln, err := net.Listen("tcp", a)
	if err != nil {
		return "", err
	}
	resolved := ln.Addr().String()
	ln.Close()
	return resolved, nil
}

// spawnPeers launches processes 1..procs-1 of this job, re-executing
// this binary with the resolved settings.
func spawnPeers(path, rendezvous string, cfg interp.Config) ([]*exec.Cmd, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var kids []*exec.Cmd
	for i := 1; i < *procs; i++ {
		args := []string{
			"-job", *job, "-transport", *wire, "-addr", rendezvous,
			"-procs", strconv.Itoa(*procs), "-self", strconv.Itoa(i),
			"-np", strconv.Itoa(cfg.NP), "-timeout", timeout.String(),
		}
		if *params != "" {
			args = append(args, "-param", *params)
		}
		if cfg.Vienna {
			args = append(args, "-vienna")
		}
		if cfg.Templates {
			args = append(args, "-templates")
		}
		args = append(args, path)
		c := exec.Command(bin, args...)
		c.Stdout = os.Stdout
		c.Stderr = os.Stderr
		if err := c.Start(); err != nil {
			for _, k := range kids {
				k.Process.Kill()
				k.Wait()
			}
			return nil, fmt.Errorf("spawning worker process %d: %w", i, err)
		}
		kids = append(kids, c)
	}
	return kids, nil
}

// waitBounded reaps a child, killing it if it outlives the bound.
func waitBounded(c *exec.Cmd, bound time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- c.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(bound):
		c.Process.Kill()
		<-done
		return fmt.Errorf("did not exit within %v; killed", bound)
	}
}
