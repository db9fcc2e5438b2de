package main

import "runtime/metrics"

// rmSample is a reading of the Go runtime's cumulative counters.
type rmSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64 // seconds
}

var rmNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntimeMetrics() rmSample {
	s := make([]metrics.Sample, len(rmNames))
	for i, n := range rmNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rmSample{allocBytes: v[0], allocObjects: v[1], gcCycles: v[2], gcCPU: v[3], totalCPU: v[4]}
}

// allocSample is reused by allocBytes, which only the client goroutine
// calls.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes reads the heap bytes allocated so far. The runtime counts
// small objects per cached span, so one reading is coarse; means over
// many calls are not.
func allocBytes() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// tracedAllocBytes is allocBytes while the tracer is on, 0 otherwise.
func tracedAllocBytes(tr *tracer) float64 {
	if !tr.on {
		return 0
	}
	return allocBytes()
}
