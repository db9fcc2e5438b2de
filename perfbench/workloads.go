package main

// The four workloads. Each set-up builds a seeded request list and the
// programs and oracle answers its requests need; an op serves one
// request. Request lists are stratified — every mechanism, policy and
// depth band appears in fixed proportions, and the seed only jitters
// values within a band and orders the list — so per-op means move little
// from seed to seed while every seed still yields different inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"cmm"
	"cmm/internal/machine"
	"cmm/internal/obs"
	"cmm/internal/paper"
	"cmm/internal/pipeline"
	"cmm/internal/progen"
	"cmm/internal/rts"
	"cmm/internal/sched"
	"cmm/internal/vm"
)

// request is one op's input: kind names it in the traffic record, do
// serves it. do returns the op's simulated cycles and the code size of
// the program that served it.
type request struct {
	kind string
	desc string // a stable rendering of the input, for the determinism test
	do   func(tr *tracer) (outcome, error)
	// probe, when set, runs once per request in a traced run, after the
	// warm-up pass and outside any op: it measures a layer the op does
	// not reach, or reaches only through code the benchmark cannot wrap.
	// An error is a failed op.
	probe func(tr *tracer) error
}

type outcome struct {
	cycles int64
	code   int64
}

// plan is a workload's set-up: its request list plus what the set-up
// itself compiled, for the per-layer metrics of workloads whose ops
// compile nothing.
type plan struct {
	reqs  []request
	setup layerSample
}

// layerSample accumulates per-program costs of the pipeline, native
// compile and instantiation layers.
type layerSample struct {
	programs  int
	passNS    map[string]float64
	m3NS      float64
	irNodes   float64
	irAfter   float64
	precompNS float64
	matched   float64
	cands     float64
	instNS    float64
	instBytes float64
	instances int
	compiled  int
}

func (s *layerSample) addPasses(stats []cmm.PassStat) {
	if s.passNS == nil {
		s.passNS = map[string]float64{}
	}
	s.programs++
	for _, p := range stats {
		switch {
		case len(p.Name) > 3 && p.Name[:3] == "m3-":
			s.m3NS += float64(p.Wall)
		default:
			s.passNS[p.Name] += float64(p.Wall)
		}
		switch p.Name {
		case "translate":
			s.irNodes += float64(p.IRAfter)
		case "opt":
			s.irAfter += float64(p.IRAfter)
		}
	}
}

// addInstance records one cmm.Module.Native call that took d, less the
// codegen and link passes it ran (pipeline time, not vm time).
func (s *layerSample) addInstance(d time.Duration, stats []cmm.PassStat) {
	for _, p := range stats {
		if p.Name == "codegen" || p.Name == "link" {
			d -= p.Wall
		}
	}
	s.instNS += float64(d)
	s.instances++
}

func (s *layerSample) addKernels(kr cmm.KernelReport, ns time.Duration) {
	s.compiled++
	s.precompNS += float64(ns)
	s.matched += float64(kr.Matched())
	s.cands += float64(len(kr.Candidates))
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64, tr *tracer) (*plan, error){
	"raise":   setupRaise,
	"compile": setupCompile,
	"serve":   setupServe,
}

var fig2Mechs = []mechanism{
	{"cut_to", paper.Fig2Cut, ""},
	{"set_cut_to_cont", paper.Fig2RuntimeCut, "register:handler"},
	{"set_unwind_cont", paper.Fig2RuntimeUnwind, "unwind"},
	{"return_mn", paper.Fig2NativeUnwind, ""},
	{"cps", paper.Fig2CPS, ""},
}

// raiseItem is one request of the raise distribution: a Figure 2
// program at a raise depth, or a game under a policy at a raise period.
type raiseItem struct {
	mech   int // index into fig2Mechs, or -1
	depth  uint64
	policy int // index into gamePolicies, or -1
	period uint64
}

const raiseListLen = 2048

// raiseMix draws the raise distribution: 5/8 Figure 2 requests, equally
// split over the five mechanisms, with raise depth log-uniform from 4 to
// 2048 (one draw per stratum of the log range); 3/8 game requests,
// equally split over the three policies and four raise periods.
func raiseMix(rng *rand.Rand) []raiseItem {
	var items []raiseItem
	perMech := raiseListLen * 5 / 8 / len(fig2Mechs)
	for m := range fig2Mechs {
		for j := 0; j < perMech; j++ {
			x := (float64(j) + rng.Float64()) / float64(perMech)
			d := uint64(math.Round(4 * math.Pow(512, x)))
			items = append(items, raiseItem{mech: m, depth: d, policy: -1})
		}
	}
	perPolicy := raiseListLen * 3 / 8 / len(gamePolicies)
	for p := range gamePolicies {
		for j := 0; j < perPolicy; j++ {
			items = append(items, raiseItem{mech: -1, policy: p, period: gamePeriods[j%len(gamePeriods)]})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

func (it raiseItem) kind() string {
	if it.mech >= 0 {
		return fig2Mechs[it.mech].kind
	}
	return gamePolicies[it.policy].kind
}

func (it raiseItem) String() string {
	if it.mech >= 0 {
		return fmt.Sprintf("%s depth=%d", fig2Mechs[it.mech].kind, it.depth)
	}
	return fmt.Sprintf("%s period=%d", gamePolicies[it.policy].kind, it.period)
}

// raiseProgram is a loaded module with its dispatcher and oracle answers.
type raiseProgram struct {
	mod  *cmm.Module
	disp cmm.Dispatcher // decorated; nil when the program needs none
	want map[uint64]uint64
}

// loadRaisePrograms loads the five Figure 2 programs and the game under
// each policy, and asks the interpreter for every game answer.
func loadRaisePrograms(tr *tracer) (fig2, game []raiseProgram, err error) {
	load := func(src string, m3 bool, pol cmm.ExceptionPolicy, spec string) (raiseProgram, error) {
		var mod *cmm.Module
		var err error
		if m3 {
			mod, err = cmm.LoadMiniM3(src, pol)
		} else {
			mod, err = cmm.Load(src)
		}
		if err != nil {
			return raiseProgram{}, err
		}
		d, err := newDispatcher(spec)
		if err != nil {
			return raiseProgram{}, err
		}
		rp := raiseProgram{mod: mod}
		if d != nil {
			rp.disp = &timedDispatcher{inner: d, tr: tr}
		}
		return rp, nil
	}
	for _, m := range fig2Mechs {
		rp, err := load(m.src, false, 0, m.disp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", m.kind, err)
		}
		fig2 = append(fig2, rp)
	}
	for _, p := range gamePolicies {
		rp, err := load(gameM3, true, p.policy, p.disp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p.kind, err)
		}
		rp.want = map[uint64]uint64{}
		for _, period := range gamePeriods {
			res, err := oracle(gameM3, true, p.policy, p.disp, gameProc, gameRounds, period)
			if err != nil {
				return nil, nil, fmt.Errorf("%s oracle: %w", p.kind, err)
			}
			if res[0] != 0 {
				return nil, nil, fmt.Errorf("%s oracle: exception %d escaped", p.kind, res[0])
			}
			rp.want[period] = res[1]
		}
		game = append(game, rp)
	}
	return fig2, game, nil
}

func (rp *raiseProgram) native(opts ...cmm.RunOption) (*cmm.Machine, error) {
	opts = append(opts, cmm.WithEngine(cmm.EngineNative))
	if rp.disp != nil {
		opts = append(opts, cmm.WithDispatcher(rp.disp))
	}
	return rp.mod.Native(cmm.CompileConfig{}, opts...)
}

func (it raiseItem) call(fig2, game []raiseProgram) (prog *raiseProgram, proc string, args []uint64, want []uint64) {
	if it.mech >= 0 {
		return &fig2[it.mech], "f", []uint64{it.depth}, []uint64{fig2Answer}
	}
	p := &game[it.policy]
	return p, gameProc, []uint64{gameRounds, it.period}, []uint64{0, p.want[it.period]}
}

// setupRaise loads every program once on the native engine; an op is
// one Run on an already-compiled machine.
func setupRaise(seed int64, tr *tracer) (*plan, error) {
	pl := &plan{}
	fig2, game, err := loadRaisePrograms(tr)
	if err != nil {
		return nil, err
	}
	machines := map[*raiseProgram]*cmm.Machine{}
	sizes := map[*raiseProgram]int64{}
	for _, list := range [][]raiseProgram{fig2, game} {
		for i := range list {
			rp := &list[i]
			b0 := allocBytes()
			t0 := time.Now()
			mc, err := rp.native()
			if err != nil {
				return nil, err
			}
			pl.setup.addInstance(time.Since(t0), rp.mod.PassStats())
			pl.setup.instBytes += allocBytes() - b0
			t0 = time.Now()
			kr := mc.KernelReport()
			pl.setup.addKernels(kr, time.Since(t0))
			pl.setup.addPasses(rp.mod.PassStats())
			machines[rp] = mc
			sizes[rp] = codeSize(rp.mod, mc)
		}
	}
	for n, it := range raiseMix(rand.New(rand.NewSource(seed))) {
		prog, proc, args, want := it.call(fig2, game)
		mc, size := machines[prog], sizes[prog]
		pol := observedPolicies[n%len(observedPolicies)]
		pl.reqs = append(pl.reqs, request{kind: it.kind(), desc: fmt.Sprintf("%s policy=%d", it, pol),
			probe: func(tr *tracer) error { return observe(tr, prog, pol, proc, args, want) },
			do: func(tr *tracer) (outcome, error) {
				mc.ResetStats()
				s := tr.begin(lMachine, "run")
				res, err := mc.Run(proc, args...)
				tr.end(s)
				if err != nil {
					return outcome{}, err
				}
				st := mc.Stats()
				countMachine(tr, st, mc.Telemetry())
				return outcome{cycles: st.Cycles, code: size}, checkResult(res, want)
			}})
	}
	return pl, nil
}

// countMachine records the engine's counters for one op.
func countMachine(tr *tracer, st cmm.Stats, te cmm.Telemetry) {
	if !tr.on {
		return
	}
	tr.count("machine.sim_instrs", float64(st.Instrs))
	tr.count("machine.kernel_instrs", float64(te.KernelInstrs))
	tr.count("machine.deopts", float64(te.DeoptCycleExit+te.DeoptTrap+te.DeoptBudget+te.DeoptObserver+te.DeoptPolicy+te.DeoptSlice))
}

// observedMem is the simulated memory of an observed or served thread.
const observedMem = 128 << 10

// observedPolicies are the stack policies observed replays rotate through.
var observedPolicies = []cmm.StackPolicy{cmm.StackSeg, cmm.StackCopy, cmm.StackHybrid}

// observe replays a request the way cmmrun -stats -stack traces one: a
// fresh machine from the cached module with a new observer, a stack
// policy and 128 KiB of memory, then the counter and stack-ledger
// snapshots and the metrics export. It measures the obs and stack-policy
// layers, which no timed op calls.
func observe(tr *tracer, prog *raiseProgram, pol cmm.StackPolicy, proc string, args, want []uint64) error {
	tr.label(lObs)
	defer tr.unlabel()
	o := cmm.NewObserver()
	mc, err := prog.native(cmm.WithObserver(o), cmm.WithStackPolicy(pol), cmm.WithMemSize(observedMem))
	if err != nil {
		return err
	}
	res, err := mc.Run(proc, args...)
	if err != nil {
		return err
	}
	t0 := time.Now()
	mc.RecordObsCounters()
	mc.RecordStackStats()
	_, err = o.Metrics().JSON()
	tr.count("obs.export_ns", float64(time.Since(t0)))
	if err != nil {
		return err
	}
	te := mc.Telemetry()
	tr.count("obs.replays", 1)
	tr.count("obs.events", float64(len(o.Trace))+float64(o.Dropped))
	tr.count("obs.deopts", float64(te.DeoptCycleExit+te.DeoptTrap+te.DeoptBudget+te.DeoptObserver+te.DeoptPolicy+te.DeoptSlice))
	tr.count("stackpolicy.ledger_cycles", float64(mc.StackStats().PolicyCycles))
	return checkResult(res, want)
}

// compileProgram is one source the compile workload takes to a result.
type compileProgram struct {
	kind string
	name string
	src  string
	m3   bool
	pol  cmm.ExceptionPolicy
	disp string
	cc   cmm.CompileConfig
	proc string
	args []uint64
	want []uint64
}

// progenDraws is how many generated programs a compile set-up draws;
// progenArgMax bounds their argument.
const (
	progenDraws  = 64
	progenArgMax = 100
)

// compilePool gathers the compile workload's programs: every
// paper.CycleWorkload, progenDraws generated programs (4 procedures,
// exceptions on), and the game under each policy at each raise period
// (games[policy][period]).
//
// Generator seeds are tried from 0 up; a program is kept only if the §5
// interpreter returns from it within interpSteps. The generated sources
// are the same for every workload seed: their sizes vary so widely that
// a seeded set of 64 moved compile latency by tens of percent from seed
// to seed. The workload seed draws their arguments, one from each of
// progenDraws equal strata of 0..progenArgMax.
func compilePool(rng *rand.Rand) (fixed []compileProgram, games [][]compileProgram, err error) {
	for _, w := range paper.CycleWorkloads {
		cp := compileProgram{kind: "cycle", name: w.Name, src: w.Src, disp: w.Dispatcher, proc: w.Proc, args: w.Args,
			cc: cmm.CompileConfig{Opt: 2, TestAndBranch: w.TestAndBranch, NoCalleeSaves: w.NoCalleeSaves}}
		if w.Want != nil {
			cp.want = []uint64{*w.Want}
		} else {
			res, err := oracle(w.Src, false, 0, w.Dispatcher, w.Proc, w.Args...)
			if err != nil {
				return nil, nil, fmt.Errorf("%s oracle: %w", w.Name, err)
			}
			cp.want = res[:1]
		}
		fixed = append(fixed, cp)
	}
	strata := rng.Perm(progenDraws)
	for s, kept := int64(0), 0; kept < progenDraws; s++ {
		if s > 4*progenDraws {
			return nil, nil, fmt.Errorf("progen: only %d of %d programs finish within %d interpreter steps", kept, progenDraws, interpSteps)
		}
		src := progen.Generate(s, progen.Config{Procs: 4, Exceptions: true})
		x := (float64(strata[kept]) + rng.Float64()) / progenDraws
		arg := uint64(x * (progenArgMax + 1))
		res, err := oracle(src, false, 0, "", "p0", arg)
		if err != nil {
			continue
		}
		fixed = append(fixed, compileProgram{kind: "progen", name: fmt.Sprintf("progen%d(%d)", s, arg), src: src,
			cc: cmm.CompileConfig{Opt: 2}, proc: "p0", args: []uint64{arg}, want: res[:1]})
		kept++
	}
	for _, p := range gamePolicies {
		var byPeriod []compileProgram
		for _, period := range gamePeriods {
			res, err := oracle(gameM3, true, p.policy, p.disp, gameProc, gameRounds, period)
			if err != nil {
				return nil, nil, fmt.Errorf("%s oracle: %w", p.kind, err)
			}
			byPeriod = append(byPeriod, compileProgram{kind: "game", name: fmt.Sprintf("%s_every%d", p.kind, period), src: gameM3, m3: true,
				pol: p.policy, disp: p.disp, cc: cmm.CompileConfig{Opt: 2}, proc: gameProc,
				args: []uint64{gameRounds, period}, want: res[:2]})
		}
		games = append(games, byPeriod)
	}
	return fixed, games, nil
}

// setupCompile builds the request list: one shuffled pass over the pool
// per raise period, each game policy taking a different period in each
// pass, in a seeded order. An op takes source text to a checked first
// result.
func setupCompile(seed int64, tr *tracer) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	fixed, games, err := compilePool(rng)
	if err != nil {
		return nil, err
	}
	var periods [][]int
	for range games {
		periods = append(periods, rng.Perm(len(gamePeriods)))
	}
	pl := &plan{}
	for pass := range gamePeriods {
		progs := append([]compileProgram(nil), fixed...)
		for g, byPeriod := range games {
			progs = append(progs, byPeriod[periods[g][pass]])
		}
		for _, i := range rng.Perm(len(progs)) {
			p := progs[i]
			pl.reqs = append(pl.reqs, request{kind: p.kind, desc: p.name, do: func(tr *tracer) (outcome, error) {
				return p.compileAndRun(tr)
			}})
		}
	}
	return pl, nil
}

func (p *compileProgram) compileAndRun(tr *tracer) (outcome, error) {
	s := tr.begin(lPipeline, "load")
	var mod *cmm.Module
	var err error
	if p.m3 {
		mod, err = cmm.LoadMiniM3With(p.src, p.pol, cmm.LoadConfig{})
	} else {
		mod, err = cmm.LoadWith(p.src, cmm.LoadConfig{})
	}
	tr.end(s)
	if err != nil {
		return outcome{}, err
	}
	so := tr.begin(lPipeline, "opt")
	_, err = mod.ApplyOpt(2)
	tr.end(so)
	if err != nil {
		return outcome{}, err
	}
	d, err := newDispatcher(p.disp)
	if err != nil {
		return outcome{}, err
	}
	opts := []cmm.RunOption{cmm.WithEngine(cmm.EngineNative)}
	if d != nil {
		opts = append(opts, cmm.WithDispatcher(&timedDispatcher{inner: d, tr: tr}))
	}
	b0 := tracedAllocBytes(tr)
	sn := tr.begin(lVM, "native")
	mc, err := mod.Native(p.cc, opts...)
	tr.end(sn)
	tr.count("vm.bytes", tracedAllocBytes(tr)-b0)
	if err != nil {
		return outcome{}, err
	}
	sp := tr.begin(lMachine, "precompile")
	kr := mc.KernelReport()
	tr.end(sp)
	sr := tr.begin(lMachine, "run")
	res, err := mc.Run(p.proc, p.args...)
	tr.end(sr)
	if err != nil {
		return outcome{}, err
	}
	st := mc.Stats()
	if tr.on {
		stats := mod.PassStats()
		tr.addPasses(stats, s, so, sn)
		countMachine(tr, st, mc.Telemetry())
		tr.count("machine.kernels_matched", float64(kr.Matched()))
		tr.count("machine.kernel_candidates", float64(len(kr.Candidates)))
		var ls layerSample
		ls.addPasses(stats)
		for name, ns := range ls.passNS {
			tr.count("pipeline."+name+"_ns", ns)
		}
		tr.count("minim3.frontend_ns", ls.m3NS)
		tr.count("pipeline.ir_nodes", ls.irNodes)
		tr.count("pipeline.ir_nodes_after_opt", ls.irAfter)
	}
	return outcome{cycles: st.Cycles, code: codeSize(mod, mc)}, checkResult(res, p.want)
}

// Serve: one op is a fan-out request of serveTasks simulated threads
// scheduled over serveWorkers host goroutines.
const (
	serveTasks    = 64
	serveWorkers  = 2
	serveListLen  = 16
	serveCancelAt = 30_000 // simulated instructions before a deep dig is cut
	serveDeepDig  = 3000
)

var serveMechs = []mechanism{fig2Mechs[0], fig2Mechs[1], fig2Mechs[2], fig2Mechs[3]}

// serveProto compiles a Figure 2 program as a scheduler prototype.
func serveProto(m mechanism, tr *tracer, s *layerSample) (*vm.Instance, error) {
	sess := pipeline.New(m.src, pipeline.Config{})
	if err := sess.Frontend(); err != nil {
		return nil, err
	}
	cp, err := sess.Codegen()
	if err != nil {
		return nil, err
	}
	s.addPasses(sess.Stats())
	opts := []vm.Option{vm.WithEngine(machine.EngineNative), vm.WithMemSize(observedMem)}
	d, err := newDispatcher(m.disp)
	if err != nil {
		return nil, err
	}
	if d != nil {
		td := &timedDispatcher{inner: d, tr: tr}
		opts = append(opts, vm.WithRuntime(vm.RuntimeFunc(func(t *vm.Thread, args []uint64) error {
			return td.Dispatch(rts.VMThread{T: t}, args)
		})))
	}
	inst, err := vm.NewInstance(cp, opts...)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	inst.Precompile()
	kr := cmm.KernelReport{Candidates: inst.ExplainKernels()}
	s.addKernels(kr, time.Since(t0))
	return inst, nil
}

// serveOp draws one fan-out request: every 11th task (from the 6th) is
// a deep runtime-cut dig cancelled by a deadline cut; the rest run the
// four mechanisms in turn at depths log-uniform from 64 to 2048, one
// draw per stratum.
func serveOp(rng *rand.Rand, protos []*vm.Instance) ([]sched.Task, []string) {
	var normal []int
	for i := 0; i < serveTasks; i++ {
		if i%11 != 5 {
			normal = append(normal, i)
		}
	}
	strata := rng.Perm(len(normal))
	tasks := make([]sched.Task, serveTasks)
	kinds := make([]string, serveTasks)
	for i := range tasks {
		tasks[i] = sched.Task{ID: i, Proc: "f", Proto: protos[1], Args: []uint64{serveDeepDig},
			CancelAfter: serveCancelAt, CancelCont: "handler", CancelParams: []uint64{7, cancelAnswer}}
		kinds[i] = "cancelled_dig"
	}
	off := rng.Intn(len(serveMechs))
	for j, i := range normal {
		x := (float64(strata[j]) + rng.Float64()) / float64(len(normal))
		m := (j + off) % len(serveMechs)
		tasks[i] = sched.Task{ID: i, Proc: "f", Proto: protos[m], Args: []uint64{uint64(math.Round(64 * math.Pow(32, x)))}}
		kinds[i] = serveMechs[m].kind
	}
	return tasks, kinds
}

// cloneProbe times one Clone of a prototype. sched.Run clones each
// task's prototype on a worker, where the benchmark cannot put a span,
// so the serve workload's vm figures come from these probes.
func cloneProbe(tr *tracer, proto *vm.Instance) error {
	tr.label(lVM)
	defer tr.unlabel()
	b0 := allocBytes()
	t0 := time.Now()
	_, err := proto.Clone()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	tr.count("vm.clone_ns", float64(d))
	tr.count("vm.clone_bytes", allocBytes()-b0)
	tr.count("vm.clones", 1)
	return nil
}

// taskTuple is the part of a task's outcome that must not depend on the
// worker count.
type taskTuple struct {
	res   []uint64
	err   string
	stats machine.Counters
}

func tupleOf(r sched.Result) taskTuple {
	t := taskTuple{res: r.Res, stats: r.Stats}
	if r.Err != nil {
		t.err = r.Err.Error()
	}
	return t
}

// setupServe compiles the four prototypes, draws serveListLen fan-out
// requests and computes each one's per-task reference with one worker.
func setupServe(seed int64, tr *tracer) (*plan, error) {
	pl := &plan{}
	var protos []*vm.Instance
	for _, m := range serveMechs {
		p, err := serveProto(m, tr, &pl.setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.kind, err)
		}
		protos = append(protos, p)
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < serveListLen; n++ {
		tasks, kinds := serveOp(rng, protos)
		ref, err := sched.Run(sched.Config{Workers: 1}, tasks)
		if err != nil {
			return nil, err
		}
		want := make([]taskTuple, len(ref))
		for i, r := range ref {
			want[i] = tupleOf(r)
			if r.Err != nil {
				return nil, fmt.Errorf("serve reference: task %d (%s) trapped: %v", i, kinds[i], r.Err)
			}
		}
		desc := fmt.Sprint(kinds, taskArgs(tasks))
		proto := protos[n%len(protos)]
		pl.reqs = append(pl.reqs, request{kind: "fanout", desc: desc,
			do:    func(tr *tracer) (outcome, error) { return serveRun(tr, tasks, kinds, want) },
			probe: func(tr *tracer) error { return cloneProbe(tr, proto) }})
	}
	return pl, nil
}

func taskArgs(tasks []sched.Task) [][]uint64 {
	out := make([][]uint64, len(tasks))
	for i, t := range tasks {
		out[i] = t.Args
	}
	return out
}

func serveRun(tr *tracer, tasks []sched.Task, kinds []string, want []taskTuple) (outcome, error) {
	cfg := sched.Config{Workers: serveWorkers}
	var o *obs.Observer
	if tr.on {
		o = obs.New()
		cfg.Obs = o
	}
	s := tr.begin(lSched, "run")
	results, err := sched.Run(cfg, tasks)
	tr.end(s)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	var firstErr error
	for i, r := range results {
		out.cycles += r.Stats.Cycles
		wantAns := uint64(fig2Answer)
		if kinds[i] == "cancelled_dig" {
			wantAns = cancelAnswer
		}
		switch {
		case r.Err != nil:
			firstErr = fmt.Errorf("task %d (%s) trapped: %v", i, kinds[i], r.Err)
		case r.Res[0] != wantAns || r.Cancelled != (kinds[i] == "cancelled_dig"):
			firstErr = fmt.Errorf("task %d (%s): got %d (cancelled %v), want %d", i, kinds[i], r.Res[0], r.Cancelled, wantAns)
		case !reflect.DeepEqual(tupleOf(r), want[i]):
			firstErr = fmt.Errorf("task %d (%s): outcome differs from the 1-worker reference", i, kinds[i])
		}
		if firstErr != nil {
			break
		}
	}
	if o != nil {
		countSched(tr, o.Metrics(), results)
	}
	out.code = serveCodeSize(tasks)
	return out, firstErr
}

// serveCodeSize sums the generated instructions of the distinct
// programs an op's tasks run.
func serveCodeSize(tasks []sched.Task) int64 {
	var n int64
	seen := map[*vm.Instance]bool{}
	for _, t := range tasks {
		if !seen[t.Proto] {
			seen[t.Proto] = true
			for name := range t.Proto.P.Procs {
				n += int64(t.Proto.P.CodeSize(name))
			}
		}
	}
	return n
}

// countSched records one scheduler run's telemetry.
func countSched(tr *tracer, m *obs.Metrics, results []sched.Result) {
	var slices, cancelled, instrs float64
	for _, r := range results {
		slices += float64(r.Slices)
		instrs += float64(r.Stats.Instrs)
		if r.Cancelled {
			cancelled++
		}
	}
	tr.count("sched.tasks", float64(len(results)))
	tr.count("sched.slices", slices)
	tr.count("sched.cancelled", cancelled)
	tr.count("machine.sim_instrs", instrs)
	tr.count("sched.steals", float64(m.Sched["steals"]))
	if h, ok := m.Histograms["sched_cut_depth"]; ok {
		tr.count("sched.cut_depth_sum", float64(h.Sum))
		tr.count("sched.cut_depth_n", float64(h.Count))
	}
	if h, ok := m.Histograms["sched_queue_depth"]; ok {
		tr.count("sched.queue_depth_p50", float64(histP50(h)))
	}
	var max, sum float64
	for _, w := range m.SchedWorkers {
		v := float64(w["slices"])
		sum += v
		if v > max {
			max = v
		}
	}
	if sum > 0 {
		tr.count("sched.worker_imbalance", max/(sum/float64(len(m.SchedWorkers))))
	}
}

// histP50 is the upper bound of the power-of-two bucket holding the
// median observation.
func histP50(h obs.HistogramSnapshot) int64 {
	var n int64
	for _, b := range h.Buckets {
		n += b.N
		if 2*n >= h.Count {
			return b.Le
		}
	}
	return 0
}
