// Command perfbench is the repository's benchmark: it serves one of three
// closed-loop workloads (raise, compile, serve) on the native engine for
// a fixed time, checks every result against an oracle, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// span ledger off. With --trace 1 they are the per-layer ones: the run
// measures untraced for half its time (the base of trace.overhead_pct
// and of the Go GC figures) and traced for the other half. See
// README.md in this directory for every metric and the layer it
// belongs to.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload raise --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1

// setupRounds is how many times a run builds its workload; setup_s is
// the median.
const setupRounds = 5

// maxErrs is how many failures a run describes on standard error.
const maxErrs = 5

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	cpuprofile string
	spans      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: raise, compile or serve")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed: the same seed gives the same request list")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the span ledger")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "with --trace 1, write a CPU profile of the traced phase, labelled by layer")
	fs.StringVar(&cfg.spans, "spans", "", "with --trace 1, write every span of the traced phase to this file, one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload raise|compile|serve [--seed N] [--seconds S] [--trace 0|1]\n")
		return 2
	}
	cfg.trace = trace == 1
	rep, err := runWorkload(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// host stamps a report: throughput compares only between identical hosts.
func host() map[string]any {
	return map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
}

// phase is what one stretch of ops observed.
type phase struct {
	warmup      bool // the pass that sets expect; later phases check it
	ops, failed int64
	elapsed     time.Duration
	lat         []float64 // per-op wall time, ns
	end         []float64 // per-op completion, ns since the phase began
	kindOps     map[string]int64
	kindNS      map[string]float64
	rm0, rm1    rmSample
	start       time.Time
}

func newPhase() *phase {
	return &phase{kindOps: map[string]int64{}, kindNS: map[string]float64{}}
}

func (p *phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// bench is one run's state.
type bench struct {
	cfg    config
	tr     *tracer
	pl     *plan
	expect []outcome // per request, from the warm-up pass
	warm   map[string]float64
	next   int64    // op counter, the ledger's request id
	errs   []string // the first maxErrs failures
}

func runWorkload(cfg config, stdout, stderr io.Writer) (*report, error) {
	b := &bench{cfg: cfg, tr: newTracer()}
	setup := workloads[cfg.workload]
	var setupS []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		pl, err := setup(cfg.seed, b.tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		b.pl = pl
	}

	// Warm-up: one pass over the request list fills caches and finishes
	// lazy set-up, and fixes the per-request simulated cycles and code
	// sizes every later op must reproduce. With --trace 1 it also fixes
	// the exact per-layer counts, which are means over this same list.
	b.tr.on = cfg.trace
	warm := newPhase()
	warm.warmup = true
	b.expect = make([]outcome, len(b.pl.reqs))
	for i := range b.pl.reqs {
		out, ok := b.op(i, warm)
		if ok {
			b.expect[i] = out
		}
	}
	if cfg.trace {
		b.probes(warm)
	}
	b.warm = b.tr.counts
	b.tr.on = false
	b.tr.reset()
	runtime.GC()

	total := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{Metrics: map[string]metric{}}
	var untraced, traced *phase
	if !cfg.trace {
		untraced = b.measure(total)
	} else {
		untraced = b.measure(total / 2)
		runtime.GC()
		b.tr.keep = cfg.spans != ""
		stop, err := startProfile(cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		b.tr.on = true
		traced = b.measure(total - total/2)
		b.tr.on = false
		if err := stop(); err != nil {
			return nil, err
		}
		if cfg.spans != "" {
			if err := writeFile(cfg.spans, b.tr.writeSpans); err != nil {
				return nil, err
			}
		}
	}

	phases := []*phase{warm, untraced}
	if traced != nil {
		phases = append(phases, traced)
	}
	for _, p := range phases {
		rep.Attempted += p.ops
		rep.Failed += p.failed
	}
	rep.Correct = rep.Failed == 0
	if cfg.trace {
		b.layerMetrics(rep, untraced, traced)
	} else {
		b.endToEnd(rep, untraced, median(setupS))
	}

	// Human-readable lines; the result line follows them.
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "engine": "native",
		"requests": len(b.pl.reqs), "setup_s_rounds": setupS, "host": host()})
	last := untraced
	if traced != nil {
		last = traced
	}
	_ = enc.Encode(map[string]any{"traffic": traffic(last)})
	_ = enc.Encode(map[string]any{"error_rate": float64(rep.Failed) / float64(rep.Attempted),
		"attempted": rep.Attempted, "failed": rep.Failed})
	for _, e := range b.errs {
		fmt.Fprintf(stderr, "failure: %s\n", e)
	}
	if rep.Failed > int64(len(b.errs)) {
		fmt.Fprintf(stderr, "... %d more failures\n", rep.Failed-int64(len(b.errs)))
	}
	return rep, nil
}

// startProfile starts a CPU profile into path, if one is asked for; stop
// ends it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// op serves request i of the list once, inside an op span, and charges
// the outcome to p. A trap, a wrong answer, a panic, or simulated
// cycles that differ from the warm-up pass all count as one failure.
func (b *bench) op(i int, p *phase) (outcome, bool) {
	req := &b.pl.reqs[i]
	b.next++
	t0 := time.Now()
	root := b.tr.beginOp(b.next, req.kind)
	out, err := safeDo(req, b.tr)
	b.tr.endOp(root)
	done := time.Now()
	ns := float64(done.Sub(t0))
	if err == nil && !p.warmup && out != b.expect[i] {
		err = fmt.Errorf("outcome %+v differs from the warm-up pass %+v", out, b.expect[i])
	}
	p.ops++
	p.lat = append(p.lat, ns)
	p.end = append(p.end, float64(done.Sub(p.start)))
	p.kindOps[req.kind]++
	p.kindNS[req.kind] += ns
	if err != nil {
		p.failed++
		if len(b.errs) < maxErrs {
			b.errs = append(b.errs, fmt.Sprintf("%s [%s]: %v", req.kind, req.desc, err))
		}
		return out, false
	}
	return out, true
}

// probes runs every request's probe once, between the warm-up pass and
// the timed phases, so that their work lands in no measured op. A probe
// error counts as a failed op of p.
func (b *bench) probes(p *phase) {
	for i := range b.pl.reqs {
		req := &b.pl.reqs[i]
		if req.probe == nil {
			continue
		}
		p.ops++
		if err := req.probe(b.tr); err != nil {
			p.failed++
			if len(b.errs) < maxErrs {
				b.errs = append(b.errs, fmt.Sprintf("%s [%s] probe: %v", req.kind, req.desc, err))
			}
		}
	}
}

func safeDo(req *request, tr *tracer) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return req.do(tr)
}

// measure runs the closed loop for d: one client, each op sent when the
// previous one has returned, cycling through the request list.
func (b *bench) measure(d time.Duration) *phase {
	p := newPhase()
	p.rm0 = readRuntimeMetrics()
	start := time.Now()
	p.start = start
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		b.op(i%len(b.pl.reqs), p)
	}
	p.elapsed = time.Since(start)
	p.rm1 = readRuntimeMetrics()
	return p
}

// windows is how many equal stretches of time the timed phase is cut
// into. Throughput and latency percentiles are taken per window and the
// median over windows is reported, so a burst of interference from
// outside the process moves at most a window or two. Five windows keep
// at least ten ops beyond the p99 of every window on every workload.
const windows = 5

// windowed returns the median over windows of the throughput, the p50
// and the p99 latency (ns).
func (p *phase) windowed() (rate, p50, p99 float64) {
	width := float64(p.elapsed) / windows
	lats := make([][]float64, windows)
	for i, t := range p.end {
		w := int(t / width)
		if w >= windows {
			w = windows - 1
		}
		lats[w] = append(lats[w], p.lat[i])
	}
	var rates, p50s, p99s []float64
	for _, l := range lats {
		sort.Float64s(l)
		rates = append(rates, float64(len(l))/(width/1e9))
		p50s = append(p50s, quantile(l, 0.50))
		p99s = append(p99s, quantile(l, 0.99))
	}
	return median(rates), median(p50s), median(p99s)
}

// traffic is each request kind's share of ops and of wall time.
func traffic(p *phase) map[string]map[string]float64 {
	var total float64
	for _, ns := range p.kindNS {
		total += ns
	}
	out := map[string]map[string]float64{}
	for k, n := range p.kindOps {
		out[k] = map[string]float64{"ops_share": float64(n) / float64(p.ops), "time_share": p.kindNS[k] / total}
	}
	return out
}

// endToEnd fills the end-to-end metrics from the untraced phase.
func (b *bench) endToEnd(rep *report, p *phase, setupS float64) {
	var cycles, code float64
	for _, e := range b.expect {
		cycles += float64(e.cycles)
		code += float64(e.code)
	}
	n := float64(len(b.expect))
	rate, p50, p99 := p.windowed()
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	set("setup_s", setupS, "s")
	set("ops_per_s", rate, "1/s")
	set("op_p50_us", p50/1e3, "us")
	set("op_p99_us", p99/1e3, "us")
	set("sim_cycles_per_op", cycles/n, "cycles")
	set("code_size_instrs", code/n, "instrs")
	set("alloc_bytes_per_op", (p.rm1.allocBytes-p.rm0.allocBytes)/float64(p.ops), "B")
}

// layerMetrics fills the per-layer metrics: exact counts from the
// warm-up pass, host times from the traced phase, Go GC figures from the
// untraced phase.
func (b *bench) layerMetrics(rep *report, untraced, traced *phase) {
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	tr := b.tr
	w := b.warm
	n := float64(len(b.pl.reqs))
	ops := float64(traced.ops)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	s := &b.pl.setup
	compiles := b.cfg.workload == "compile"

	// pipeline: per program compiled — by the ops on compile, by the
	// set-up elsewhere.
	for _, pass := range pipelinePasses {
		name := "pipeline." + pass + "_ns"
		if compiles {
			set(name, tr.counts[name]/ops, "ns")
		} else {
			set(name, div(s.passNS[pass], float64(s.programs)), "ns")
		}
	}
	if compiles {
		set("minim3.frontend_ns", tr.counts["minim3.frontend_ns"]/ops, "ns")
		set("pipeline.ir_nodes", w["pipeline.ir_nodes"]/n, "count")
		set("pipeline.ir_nodes_after_opt", w["pipeline.ir_nodes_after_opt"]/n, "count")
	} else {
		set("minim3.frontend_ns", div(s.m3NS, float64(s.programs)), "ns")
		set("pipeline.ir_nodes", div(s.irNodes, float64(s.programs)), "count")
		set("pipeline.ir_nodes_after_opt", div(s.irAfter, float64(s.programs)), "count")
	}

	// machine
	if compiles {
		set("machine.precompile_ns", tr.spanSelf["machine.precompile"]/ops, "ns")
		set("machine.kernels_matched", w["machine.kernels_matched"]/n, "count")
		set("machine.kernel_candidates", w["machine.kernel_candidates"]/n, "count")
	} else {
		set("machine.precompile_ns", div(s.precompNS, float64(s.compiled)), "ns")
		set("machine.kernels_matched", div(s.matched, float64(s.compiled)), "count")
		set("machine.kernel_candidates", div(s.cands, float64(s.compiled)), "count")
	}
	set("machine.run_ns", tr.spanSelf["machine.run"]/ops, "ns")
	set("machine.sim_instrs_per_op", w["machine.sim_instrs"]/n, "count")
	set("machine.kernel_instr_pct", 100*div(w["machine.kernel_instrs"], w["machine.sim_instrs"]), "%")
	set("machine.deopts_per_op", w["machine.deopts"]/n, "count")

	// vm: per instance built — by the ops on compile, by the clone
	// probes on serve, by the set-up on raise.
	switch {
	case compiles:
		set("vm.instantiate_ns", tr.spanSelf["vm.native"]/ops, "ns")
		set("vm.instantiate_bytes", tr.counts["vm.bytes"]/ops, "B")
	case b.cfg.workload == "serve":
		set("vm.instantiate_ns", div(w["vm.clone_ns"], w["vm.clones"])*serveTasks, "ns")
		set("vm.instantiate_bytes", div(w["vm.clone_bytes"], w["vm.clones"])*serveTasks, "B")
	default:
		set("vm.instantiate_ns", div(s.instNS, float64(s.instances)), "ns")
		set("vm.instantiate_bytes", div(s.instBytes, float64(s.instances)), "B")
	}

	// dispatch and rts
	set("dispatch.calls_per_op", w["dispatch.calls"]/n, "count")
	set("dispatch.ns_per_op", tr.self[lDispatch]/ops, "ns")
	set("dispatch.ns_per_call", div(tr.spanDur["dispatch.dispatch"], tr.counts["dispatch.calls"]), "ns")
	set("rts.activations_walked_per_op", w["rts.activations_walked"]/n, "count")

	// sched
	set("sched.run_ns", tr.spanSelf["sched.run"]/ops, "ns")
	set("sched.slices_per_task", div(w["sched.slices"], w["sched.tasks"]), "count")
	set("sched.steals_per_op", tr.counts["sched.steals"]/ops, "count")
	set("sched.queue_depth_p50", tr.counts["sched.queue_depth_p50"]/ops, "count")
	set("sched.worker_imbalance", tr.counts["sched.worker_imbalance"]/ops, "ratio")
	set("sched.cancelled_per_op", w["sched.cancelled"]/n, "count")
	set("sched.cut_depth_mean", div(w["sched.cut_depth_sum"], w["sched.cut_depth_n"]), "count")

	// obs and stackpolicy: from the observed replay of each raise request
	set("obs.events_per_op", w["obs.events"]/n, "count")
	set("obs.deopts_per_op", w["obs.deopts"]/n, "count")
	set("obs.export_ns", div(w["obs.export_ns"], w["obs.replays"]), "ns")
	set("stackpolicy.ledger_cycles_per_op", w["stackpolicy.ledger_cycles"]/n, "cycles")

	// Go GC, over the untraced phase.
	r0, r1 := untraced.rm0, untraced.rm1
	uops := float64(untraced.ops)
	set("go.gc_cpu_pct", 100*div(r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU), "%")
	set("go.gc_cycles_per_kop", 1000*(r1.gcCycles-r0.gcCycles)/uops, "count")
	set("go.allocs_per_op", (r1.allocObjects-r0.allocObjects)/uops, "count")

	// Self time per layer, and what the ledger covers.
	for l := layer(0); l < numLayers; l++ {
		set("self."+layerNames[l]+"_ns", tr.self[l]/ops, "ns")
	}
	set("trace.op_wall_ns", tr.opWallNS/ops, "ns")
	set("trace.unattributed_pct", 100*div(tr.opWallNS-tr.covered, tr.opWallNS), "%")
	set("trace.overhead_pct", 100*(untraced.opsPerSec()/traced.opsPerSec()-1), "%")
}

// pipelinePasses are the back-end passes timed per program.
var pipelinePasses = []string{"parse", "check", "translate", "liveness", "interproc", "opt", "codegen", "link"}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}
