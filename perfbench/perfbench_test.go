package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"awgsim/internal/sim"
)

// coldPass runs one reduced-length pass with the process-wide simulator
// state reset, as a fresh process would start it.
func coldPass(t *testing.T, wl *workload, seed uint64, trace string) *passRecord {
	t.Helper()
	sim.ResetCache()
	sim.ResetForkStats()
	sim.ResetTotals()
	rec, err := runPass(wl, seed, 2, true, trace)
	if err != nil {
		t.Fatalf("%s seed %d: %v", wl.name, seed, err)
	}
	return rec
}

// unexpectedFailures lists failed units other than the known-defect cell.
func unexpectedFailures(rec *passRecord) []string {
	var out []string
	for _, u := range rec.Units {
		if u.Failed && !u.KnownDefect {
			out = append(out, u.ID+": "+u.Detail)
		}
	}
	return out
}

// TestWorkloadsDeterministic runs every workload at reduced length twice
// with one seed and requires identical result digests and no failures
// beyond the known-defect cell.
func TestWorkloadsDeterministic(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			a := coldPass(t, wl, 7, "")
			b := coldPass(t, wl, 7, "")
			if a.Digest != b.Digest {
				t.Fatalf("digests differ across passes of seed 7: %s vs %s", a.Digest, b.Digest)
			}
			if len(a.Units) == 0 || a.SimCycles == 0 {
				t.Fatalf("empty pass: %d units, %d cycles", len(a.Units), a.SimCycles)
			}
			if f := unexpectedFailures(a); len(f) > 0 {
				t.Fatalf("unexpected failures: %v", f)
			}
		})
	}
}

// TestHeldOutSeed runs every workload once with a seed not used while the
// benchmark was written: nothing may fail but the known-defect cell, and
// that cell must still be the fault_sweep unit flagged as the defect.
func TestHeldOutSeed(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			rec := coldPass(t, wl, 0x5eed_4e1d, "")
			if f := unexpectedFailures(rec); len(f) > 0 {
				t.Fatalf("unexpected failures: %v", f)
			}
			known := 0
			for _, u := range rec.Units {
				if u.KnownDefect {
					known++
				}
			}
			if want := map[bool]int{true: 1, false: 0}[wl.name == "fault_sweep"]; known != want {
				t.Fatalf("%d known-defect units, want %d", known, want)
			}
		})
	}
}

// TestTracedPassMatchesUntraced checks that tracing leaves the simulated
// results alone and reports every layer metric.
func TestTracedPassMatchesUntraced(t *testing.T) {
	wl := &workloads[0]
	plain := coldPass(t, wl, 3, "")
	traced := coldPass(t, wl, 3, t.TempDir()+"/spans.json")
	if plain.Digest != traced.Digest {
		t.Fatalf("tracing changed the results: %s vs %s", plain.Digest, traced.Digest)
	}
	for _, name := range []string{"event.events", "gpu.atomics", "mem.l1_hit_ratio", "gpu.snapshot_us",
		"kernels.build_us", "sim.session_new_us", "event.cpu_share", "runtime.alloc_mb", "selftime.sim_s"} {
		v, ok := traced.Layers[name]
		if !ok || math.IsNaN(v) || v <= 0 {
			t.Errorf("layer metric %s = %v (present %v), want > 0", name, v, ok)
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x = spin(x)
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples")
	}
	if s := p.share(func(fn string) bool { return strings.HasSuffix(fn, ".spin") }); s < 0.5 {
		t.Errorf("spin's flat share %.2f, want most samples (%v)", s, p.flat)
	}
}

//go:noinline
func spin(x int) int {
	for i := 0; i < 1000; i++ {
		x = x*31 + i
	}
	return x
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "bench.unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.Session.Run", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "sim.Session.Release", Start: 50, End: 70},
	}}
	got := tr.selfTimes()
	if math.Abs(got["bench"]-40e-9) > 1e-15 || math.Abs(got["sim"]-70e-9) > 1e-15 {
		t.Fatalf("self times %v, want bench 40ns and sim 70ns", got)
	}
}
