package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun runs a workload briefly through the command-line entry point
// and returns its result line.
func shortRun(t *testing.T, workload, seed, trace string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.2", "--trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", workload, rep.Correct, rep.Failed, rep.Attempted, stderr.String())
	}
	return rep
}

func checkNames(t *testing.T, workload string, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", workload, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, got.Value)
		}
	}
}

// TestEveryWorkload runs each workload briefly, untraced and traced: no
// op fails, every metric BENCHMARK.json names is printed with its unit,
// and the layers' self times add up to the op wall time the ledger
// covers.
func TestEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		rep := shortRun(t, w.Name, "1", "0")
		checkNames(t, w.Name, rep, s.EndToEnd)
		for _, name := range []string{"setup_s", "ops_per_s", "op_p50_us", "op_p99_us", "sim_cycles_per_op", "code_size_instrs", "alloc_bytes_per_op"} {
			if v := rep.Metrics[name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, v)
			}
		}

		rep = shortRun(t, w.Name, "1", "1")
		checkNames(t, w.Name, rep, s.PerLayer)
		var self float64
		for l := layer(0); l < numLayers; l++ {
			self += rep.Metrics["self."+layerNames[l]+"_ns"].Value
		}
		wall := rep.Metrics["trace.op_wall_ns"].Value
		covered := wall * (1 - rep.Metrics["trace.unattributed_pct"].Value/100)
		if wall <= 0 || math.Abs(self-covered) > 1e-6*wall {
			t.Errorf("%s: layer self times sum to %.1f ns/op, want op wall %.1f less unattributed = %.1f", w.Name, self, wall, covered)
		}
	}
}

// TestSeedDeterminism: one seed gives the same request list and the
// same exact metrics on every run; another seed gives another list.
func TestSeedDeterminism(t *testing.T) {
	for name, setup := range workloads {
		descs := func(seed int64) []string {
			pl, err := setup(seed, newTracer())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var out []string
			for _, r := range pl.reqs {
				out = append(out, r.kind+" "+r.desc)
			}
			return out
		}
		a, b, c := descs(7), descs(7), descs(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
		r1, r2 := shortRun(t, name, "7", "0"), shortRun(t, name, "7", "0")
		for _, m := range []string{"sim_cycles_per_op", "code_size_instrs"} {
			if r1.Metrics[m] != r2.Metrics[m] {
				t.Errorf("%s: %s differs between runs of seed 7: %v vs %v", name, m, r1.Metrics[m], r2.Metrics[m])
			}
		}
	}
}

// TestAttribute checks the ledger's split of an op on hand-made spans:
// nested calls charge span minus children, and same-depth spans that
// overlap (parallel dispatchers) share the overlap.
func TestAttribute(t *testing.T) {
	const off = 10 // the op's root sits at index 10 of the ledger
	spans := []span{
		{Name: "op", layer: lOp, Start: 0, End: 100, Parent: -1},
		{Name: "run", layer: lMachine, Start: 10, End: 90, Parent: off},
		{Name: "d1", layer: lDispatch, Start: 20, End: 40, Parent: off + 1},
		{Name: "d2", layer: lDispatch, Start: 30, End: 50, Parent: off + 1},
		{Name: "native", layer: lVM, Start: 92, End: 96, Parent: off},
	}
	self, covered := attribute(spans, off)
	want := []float64{0, 80 - 30, 10 + 5, 5 + 10, 4}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if covered != 84 {
		t.Errorf("covered = %v, want 84", covered)
	}
}
