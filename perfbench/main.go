// Command perfbench is the repository benchmark: it runs three seeded
// directive-language programs (stencil, gather, sweep) through the
// interpreter on the spmd engine, checks every run's PRINT output
// against an independent reference kernel, and prints end-to-end
// metrics (untraced run) or per-layer metrics (traced run). See
// METRICS.md for every metric's definition.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stencil --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// full record with the host fingerprint and every sample.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hpfnt/internal/engine"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full per-run record printed before the result.
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Wire     string `json:"wire"`
	NP       int    `json:"np"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	// StealFrac is the share of machine CPU time the hypervisor stole
	// during the run.
	StealFrac float64              `json:"steal_frac"`
	Trace     bool                 `json:"trace"`
	Samples   map[string][]float64 `json:"samples"`
	Errors    []string             `json:"errors,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: stencil, gather or sweep")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	in := w.gen(*seed, w.full)
	steal0, total0 := cpuTicks()
	var r *run
	if *trace == 1 {
		r = tracedRun(w, w.full, in, budget, filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", w.name, *seed)))
	} else {
		r = untracedRun(w, w.full, in, budget)
	}
	steal1, total1 := cpuTicks()
	rec := record{
		Host: fingerprint(), Workload: w.name, Why: w.why, Wire: w.wire, NP: np,
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		StealFrac: float64(steal1-steal0) / float64(max(total1-total0, 1)),
		Samples:   r.samples, Errors: r.errors, TraceFile: r.traceFile,
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run accumulates one benchmark run's jobs.
type run struct {
	attempted, failed int
	errors            []string
	samples           map[string][]float64
	metrics           map[string]metric
	traceFile         string
}

func newRun() *run {
	return &run{samples: map[string][]float64{}, metrics: map[string]metric{}}
}

func (r *run) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) fail(err error) {
	r.failed++
	if len(r.errors) < 8 {
		r.errors = append(r.errors, err.Error())
	}
}

// checkedJob runs one complete untraced job, checks its output
// against a fresh reference run, and closes the session. It returns
// nil when the job failed (counted in r).
func (r *run) checkedJob(w *workload, sz size, in inputs, plan []segment) (*jobRun, refResult) {
	r.attempted++
	jr, s, err := runJob(w, plan, in, engine.SPMD, hooks{})
	ref := reference(w, in, sz)
	if err != nil {
		r.fail(err)
		return nil, ref
	}
	s.close()
	if err := checkOutput(jr.output, ref.values); err != nil {
		r.fail(err)
		return nil, ref
	}
	return jr, ref
}

// minJobs is the least number of measured jobs in a run, whatever
// the time budget.
const minJobs = 5

// untracedRun measures the end-to-end metrics: complete jobs, each
// from bring-up to the last PRINT line and checked against the
// reference, until the budget is spent. One unrecorded warm-up job
// comes first.
func untracedRun(w *workload, sz size, in inputs, budget time.Duration) *run {
	r := newRun()
	plan := w.plan(sz)
	r.checkedJob(w, sz, in, plan)
	deadline := time.Now().Add(budget)
	for jobs := 0; jobs < minJobs || time.Now().Before(deadline); jobs++ {
		jr, ref := r.checkedJob(w, sz, in, plan)
		r.add("floor_iter_ms", ref.iterNS/1e6)
		if jr == nil {
			continue
		}
		r.add("job_s", jr.jobSeconds())
		r.add("setup_s", jr.setupSeconds(plan))
		for _, v := range jr.iterMS(plan) {
			r.add("iter_ms", v)
		}
		r.add("peak_heap_mb", float64(jr.peakHeap)/(1<<20))
	}
	iter := median(r.samples["iter_ms"])
	r.set("job_s", "s", median(r.samples["job_s"]))
	r.set("setup_s", "s", median(r.samples["setup_s"]))
	r.set("iter_ms", "ms", iter)
	r.set("floor_ratio", "ratio", iter/median(r.samples["floor_iter_ms"]))
	r.set("peak_heap_mb", "MB", median(r.samples["peak_heap_mb"]))
	r.set("pass_frac", "ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	return r
}
