package main

// The programs the workloads serve, and the oracle that answers for
// them. Expected results never come from the engine being timed: they
// are constants the paper's Figure 2 programs are written to return, or
// the §5 interpreter's answer computed during set-up.

import (
	"fmt"
	"strings"

	"cmm"
	"cmm/internal/minim3"
	"cmm/internal/pipeline"
	"cmm/internal/rts"
	"cmm/internal/sem"
)

// gameM3 is the Figure 7 game in MiniM3: TryAMove handles BadMove and
// NoMoreTiles, and getMove raises every period-th round (0: never).
// Unlike the copy in the root benchmarks, playGame resets the globals on
// entry, so an answer depends only on (rounds, period) and a loaded
// machine can serve any number of requests.
const gameM3 = `
var next;
var movesTried;
exception BadMove;
exception NoMoreTiles;
proc getMove(which, period) {
    if period > 0 {
        if which % period == 1 { raise BadMove(which); }
        if which % period == 2 { raise NoMoreTiles; }
    }
    return which * 2;
}
proc makeMove(m) { return m + 1; }
proc tryAMove(which, period) {
    try {
        makeMove(getMove(which, period));
        next = next + 1;
        if next > 3 { next = 0; }
    } except BadMove(why) {
        next = 1000 + why;
    } except NoMoreTiles {
        next = 2000;
    }
    movesTried = movesTried + 1;
    return next;
}
proc playGame(rounds, period) {
    var i;
    var acc;
    next = 0;
    movesTried = 0;
    i = 0;
    acc = 0;
    while i < rounds {
        acc = acc + tryAMove(i, period);
        i = i + 1;
    }
    return acc;
}
`

const (
	gameRounds = 200
	gameProc   = "run_playGame" // the MiniM3 wrapper: returns (status, value)
)

// gamePeriods are the raise periods of the game requests.
var gamePeriods = []uint64{0, 50, 13, 3}

// fig2Answer is what every Figure 2 program returns from a raise, and
// cancelAnswer what a deadline-cancelled dig returns through its handler.
const (
	fig2Answer   = 42
	cancelAnswer = 99
)

// mechanism is one of the paper's Figure 2 exception mechanisms.
type mechanism struct {
	kind string // traffic kind
	src  string
	disp string // dispatcher spec ("" for none)
}

// policy is one MiniM3 exception policy and the run-time system it needs.
type policy struct {
	kind   string
	policy cmm.ExceptionPolicy
	disp   string
}

var gamePolicies = []policy{
	{"m3cut", cmm.StackCutting, "exnstack:mm_exn_top"},
	{"m3unwind", cmm.RuntimeUnwinding, "unwind"},
	{"m3native", cmm.NativeUnwinding, ""},
}

// newDispatcher builds the dispatcher a spec names: "unwind",
// "register:<global>" or "exnstack:<global>".
func newDispatcher(spec string) (cmm.Dispatcher, error) {
	if spec == "" {
		return nil, nil
	}
	if spec == "unwind" {
		return cmm.NewUnwindDispatcher(), nil
	}
	if g, ok := strings.CutPrefix(spec, "register:"); ok {
		return cmm.NewRegisterDispatcher(g), nil
	}
	if g, ok := strings.CutPrefix(spec, "exnstack:"); ok {
		return cmm.NewExnStackDispatcher(g), nil
	}
	return nil, fmt.Errorf("unknown dispatcher %q", spec)
}

// interpSteps bounds one oracle run. A generated program the §5
// interpreter cannot finish within it is not drawn (BENCHMARK.json
// states the rule); hand-written programs all finish well inside it.
const interpSteps = 100_000

// oracle runs proc(args) on the §5 abstract machine of src (MiniM3 when
// m3 is set) with the named dispatcher and returns its results.
func oracle(src string, m3 bool, pol cmm.ExceptionPolicy, disp string, proc string, args ...uint64) ([]uint64, error) {
	var sess *pipeline.Session
	var err error
	if m3 {
		sess, err = minim3.NewSession(src, pol, minim3.CompileOptions{Prune: true}, pipeline.Config{Workers: 1})
		if err != nil {
			return nil, err
		}
	} else {
		sess = pipeline.New(src, pipeline.Config{Workers: 1})
	}
	if err := sess.Frontend(); err != nil {
		return nil, err
	}
	opts := []sem.Option{sem.WithMaxSteps(interpSteps)}
	d, err := newDispatcher(disp)
	if err != nil {
		return nil, err
	}
	if d != nil {
		opts = append(opts, sem.WithRuntime(sem.RuntimeFunc(func(m *sem.Machine, vals []sem.Value) error {
			args := make([]uint64, len(vals))
			for i, v := range vals {
				args[i] = v.Bits
			}
			return d.Dispatch(rts.SemThread{M: m}, args)
		})))
	}
	m, err := sem.New(sess.Program(), opts...)
	if err != nil {
		return nil, err
	}
	vs, err := m.Run(proc, args...)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = v.Bits
	}
	return out, nil
}

// codeSize sums the generated instructions of every procedure.
func codeSize(mod *cmm.Module, mc *cmm.Machine) int64 {
	var n int64
	for _, p := range mod.Procedures() {
		n += int64(mc.CodeSize(p))
	}
	return n
}

// checkResult compares the leading result registers with want.
func checkResult(got, want []uint64) error {
	if len(got) < len(want) {
		return fmt.Errorf("got %d results, want %v", len(got), want)
	}
	for i, w := range want {
		if got[i] != w {
			return fmt.Errorf("got %v, want %v", got[:len(want)], want)
		}
	}
	return nil
}
