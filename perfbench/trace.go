package main

// The span ledger. Spans are recorded only from this package, around the
// calls the benchmark makes into each layer's exported functions: the
// program itself is not instrumented, so a traced run exercises exactly
// the code an untraced run does, plus the ledger's own bookkeeping
// (whose cost trace.overhead_pct reports).

import (
	"context"
	"encoding/json"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"cmm"
	"cmm/internal/rts"
)

// layer names one of the repository's modules a span is charged to.
type layer uint8

const (
	lPipeline layer = iota // syntax/check/cfg/dataflow/opt/codegen/link via the cmm facade
	lVM                    // vm: Native, NewInstance, Clone
	lMachine               // machine: native compile and the engine's Run
	lDispatch              // dispatch and rts: the front-end run-time system
	lSched                 // sched.Run
	numLayers
	lOp  = numLayers     // the root span of one benchmark operation; not a layer
	lObs = numLayers + 1 // a profile label only: observed replays run outside ops
)

var layerNames = [numLayers + 2]string{"pipeline", "vm", "machine", "dispatch", "sched", "op", "obs"}

// span is one timed call: start and end are nanoseconds since the
// tracer's base, parent indexes the ledger (-1 for an op root).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`

	layer layer
}

// tracer records spans and counters while on; when off every method
// returns at its first test, so untraced runs pay one branch per call.
//
// Spans opened with begin/end belong to the client goroutine, which is
// the only writer of cur. The dispatch decorator runs on whatever
// goroutine the machine runs on (sched workers included): it only reads
// cur, which the client set before the call that started those workers.
type tracer struct {
	on   bool
	keep bool // retain every span for writeSpans instead of dropping them per op
	base time.Time
	ctxs [numLayers + 2]context.Context

	mu       sync.Mutex
	spans    []span
	counts   map[string]float64
	cur      int32
	req      int64
	opStart  int
	self     [numLayers]float64 // ns attributed to each layer, summed over ops
	spanSelf map[string]float64 // ns attributed to each "layer.name" span kind
	spanDur  map[string]float64 // summed wall time of each span kind
	opWallNS float64
	covered  float64
	ops      int64
}

func newTracer() *tracer {
	tr := &tracer{base: time.Now(), cur: -1}
	tr.reset()
	for l := range tr.ctxs {
		tr.ctxs[l] = pprof.WithLabels(context.Background(), pprof.Labels("layer", layerNames[l]))
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// reset clears the aggregates (spans, counters and self times) between
// phases of a run.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = tr.spans[:0]
	tr.counts = map[string]float64{}
	tr.spanSelf = map[string]float64{}
	tr.spanDur = map[string]float64{}
	tr.self = [numLayers]float64{}
	tr.opWallNS, tr.covered, tr.ops = 0, 0, 0
	tr.opStart = 0
}

// begin opens a span on the client goroutine and labels the goroutine
// with its layer, as pprof.Do would, so a CPU profile taken during the
// run splits by the same layers as the ledger.
func (tr *tracer) begin(l layer, name string) int32 {
	if !tr.on {
		return -1
	}
	now := tr.now()
	tr.mu.Lock()
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, Layer: layerNames[l], layer: l, Start: now, Parent: tr.cur, Req: tr.req})
	tr.mu.Unlock()
	tr.cur = id
	pprof.SetGoroutineLabels(tr.ctxs[l])
	return id
}

// end closes the span begin returned and restores the parent's labels.
func (tr *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := tr.now()
	tr.mu.Lock()
	tr.spans[id].End = now
	parent := tr.spans[id].Parent
	pl := layer(lOp)
	if parent >= 0 {
		pl = tr.spans[parent].layer
	}
	tr.mu.Unlock()
	tr.cur = parent
	if parent >= 0 {
		pprof.SetGoroutineLabels(tr.ctxs[pl])
	} else {
		pprof.SetGoroutineLabels(context.Background())
	}
}

// label labels the client goroutine's profile samples with layer l
// outside any span (the probes); unlabel clears it.
func (tr *tracer) label(l layer) {
	if tr.on {
		pprof.SetGoroutineLabels(tr.ctxs[l])
	}
}

func (tr *tracer) unlabel() {
	if tr.on {
		pprof.SetGoroutineLabels(context.Background())
	}
}

// count adds v to a named counter.
func (tr *tracer) count(name string, v float64) {
	if !tr.on {
		return
	}
	tr.mu.Lock()
	tr.counts[name] += v
	tr.mu.Unlock()
}

// beginOp opens the root span of operation req.
func (tr *tracer) beginOp(req int64, kind string) int32 {
	if !tr.on {
		return -1
	}
	tr.req = req
	tr.mu.Lock()
	tr.opStart = len(tr.spans)
	tr.mu.Unlock()
	return tr.begin(lOp, kind)
}

// endOp closes the root span and charges the op's wall time to layers.
func (tr *tracer) endOp(id int32) {
	if id < 0 {
		return
	}
	tr.end(id)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ops := tr.spans[tr.opStart:]
	self, covered := attribute(ops, int32(tr.opStart))
	for i, sp := range ops[1:] {
		key := sp.Layer + "." + sp.Name
		tr.self[sp.layer] += self[i+1]
		tr.spanSelf[key] += self[i+1]
		tr.spanDur[key] += float64(sp.End - sp.Start)
	}
	root := ops[0]
	tr.covered += covered
	tr.opWallNS += float64(root.End - root.Start)
	tr.ops++
	if !tr.keep {
		tr.spans = tr.spans[:tr.opStart]
	}
}

// addPasses records the pipeline passes that ran during a module's
// calls as child spans of whichever of the given spans contains each
// pass's start. Passes timed before the pipeline had a clock (the
// MiniM3 front end records them without a start) stay in their
// parent's self time, which is pipeline time as well.
func (tr *tracer) addPasses(stats []cmm.PassStat, parents ...int32) {
	if !tr.on {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, ps := range stats {
		if ps.Start.IsZero() {
			continue
		}
		start := int64(ps.Start.Sub(tr.base))
		for _, p := range parents {
			if p >= 0 && tr.spans[p].Start <= start && start <= tr.spans[p].End {
				tr.spans = append(tr.spans, span{Name: ps.Name, Layer: layerNames[lPipeline], layer: lPipeline,
					Start: start, End: start + int64(ps.Wall), Parent: p, Req: tr.spans[p].Req})
				break
			}
		}
	}
}

// attribute splits an op's wall time among its spans. ops[0] is the
// root, at index offset of the ledger; the rest descend from it. Each
// instant of the root's interval belongs to the deepest spans open at
// that instant: to one span when calls nest, shared equally when spans
// of the same depth overlap (the dispatchers of parallel sched
// workers). For nested calls this is the span minus its children.
// self[i] is span i's share; covered is the time any layer span was
// open. The rest of the root's wall time is the benchmark's own glue
// between calls.
func attribute(ops []span, offset int32) (self []float64, covered float64) {
	self = make([]float64, len(ops))
	lo, hi := ops[0].Start, ops[0].End
	depth := make([]int, len(ops))
	pts := make([]int64, 0, 2*len(ops))
	for i := 1; i < len(ops); i++ {
		if j := int(ops[i].Parent - offset); j >= 0 && j < i {
			depth[i] = depth[j] + 1
		}
		pts = append(pts, clamp(ops[i].Start, lo, hi), clamp(ops[i].End, lo, hi))
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a] < pts[b] })
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if a == b {
			continue
		}
		best, n := 0, 0
		for i := 1; i < len(ops); i++ {
			if ops[i].Start <= a && ops[i].End >= b {
				switch {
				case depth[i] > best:
					best, n = depth[i], 1
				case depth[i] == best:
					n++
				}
			}
		}
		if n == 0 {
			continue
		}
		share := float64(b-a) / float64(n)
		for i := 1; i < len(ops); i++ {
			if depth[i] == best && ops[i].Start <= a && ops[i].End >= b {
				self[i] += share
			}
		}
		covered += float64(b - a)
	}
	return self, covered
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// writeSpans writes the retained ledger as one JSON object per line.
func (tr *tracer) writeSpans(w io.Writer) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// timedDispatcher decorates a cmm.Dispatcher: while the tracer is on it
// records a dispatch span per call and counts the activations the
// dispatcher walks through the Table 1 interface. Off, it forwards the
// call untouched.
type timedDispatcher struct {
	inner cmm.Dispatcher
	tr    *tracer
}

func (d *timedDispatcher) Dispatch(t rts.Thread, args []uint64) error {
	tr := d.tr
	if !tr.on {
		return d.inner.Dispatch(t, args)
	}
	parent := tr.cur
	pprof.SetGoroutineLabels(tr.ctxs[lDispatch])
	ct := &countingThread{Thread: t}
	start := tr.now()
	err := d.inner.Dispatch(ct, args)
	end := tr.now()
	tr.mu.Lock()
	pl := layer(lOp)
	if parent >= 0 {
		pl = tr.spans[parent].layer
	}
	tr.spans = append(tr.spans, span{Name: "dispatch", Layer: layerNames[lDispatch], layer: lDispatch,
		Start: start, End: end, Parent: parent, Req: tr.req})
	tr.counts["dispatch.calls"]++
	tr.counts["rts.activations_walked"] += float64(ct.walked)
	tr.mu.Unlock()
	pprof.SetGoroutineLabels(tr.ctxs[pl])
	return err
}

// countingThread counts every activation a dispatcher visits: the first
// one and each successful NextActivation.
type countingThread struct {
	rts.Thread
	walked int64
}

type countingAct struct {
	rts.Activation
	t *countingThread
}

func (c *countingThread) FirstActivation() (rts.Activation, bool) {
	a, ok := c.Thread.FirstActivation()
	if !ok {
		return nil, false
	}
	c.walked++
	return countingAct{a, c}, true
}

func (c *countingThread) SetActivation(a rts.Activation) {
	if ca, ok := a.(countingAct); ok {
		a = ca.Activation
	}
	c.Thread.SetActivation(a)
}

func (x countingAct) NextActivation() (rts.Activation, bool) {
	a, ok := x.Activation.NextActivation()
	if !ok {
		return nil, false
	}
	x.t.walked++
	return countingAct{a, x.t}, true
}
