// Command perfbench runs one pass of one benchmark workload against the
// simulator's public Go entry points (sim, gpu, fault, fleet, litmus,
// kernels) and prints the pass as one JSON record on standard output.
//
// A pass is meant to run in a fresh process, so the run cache, fork
// statistics and buffer pools start cold, as they do for an awgexp user.
// perfbench/run.py drives the passes, aggregates them and prints the
// benchmark's metrics; run this command directly only to debug one pass:
//
//	go run . -workload busywait -seed 1
//
// With -trace the pass also records spans around every public call it
// makes, a CPU profile attributed to awgsim/internal/<module>, runtime
// counters and the layer probes (see trace.go), and reports them as
// per-layer metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"awgsim/internal/sim"
)

// start is the process start as the pass sees it: wall_s is measured from
// here.
var start = time.Now()

// unitResult is one checked unit of work: one simulation (busywait), one
// fork group (fault_sweep), one fleet cell (fleet_churn) or one pattern
// batch (litmus_hunt).
type unitResult struct {
	ID     string  `json:"id"`
	MS     float64 `json:"ms"`
	Failed bool    `json:"failed"`
	// KnownDefect marks the diagnosed defect cell kept in fault_sweep; it
	// still counts as failed while the defect stands.
	KnownDefect bool   `json:"known_defect,omitempty"`
	Detail      string `json:"detail,omitempty"`
	Digest      string `json:"digest"`
}

// passRecord is what one pass reports.
type passRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	CacheState string `json:"cache_state"`
	// UnitsStartNS is the wall-clock time (Unix ns) the first unit began,
	// so a parent process can measure set-up from its exec of the pass.
	UnitsStartNS int64   `json:"units_start_ns"`
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	// HostIdleS and HostStealS are the whole host's idle and steal CPU
	// seconds over the pass (from /proc/stat): idle shows work the pass
	// could not spread over its workers, steal shows a contended host.
	HostIdleS  float64 `json:"host_idle_s"`
	HostStealS float64 `json:"host_steal_s"`
	SimCycles  uint64  `json:"sim_cycles"`
	SimRuns    uint64  `json:"sim_runs"`
	// Digest hashes every unit's simulated result in unit order: equal
	// inputs must give equal digests.
	Digest string             `json:"digest"`
	Units  []unitResult       `json:"units"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// unit is one schedulable piece of a workload. run returns the unit's
// outcome with MS left for runPass to fill in.
type unit struct {
	id  string
	run func(tr *tracer, span int) unitResult
}

// workload generates a pass's inputs from the seed (setup) and returns the
// units to run. poolWidth is how many units run at once; litmus_hunt runs
// its batches one at a time and parallelises inside each.
type workload struct {
	name      string
	poolWidth func(workers int) int
	setup     func(p *params, tr *tracer) ([]unit, error)
}

// params is what every workload is generated from.
type params struct {
	seed    uint64
	workers int
	quick   bool // reduced length, for the benchmark's own tests
	lay     *layers
}

var workloads = []workload{busywait, faultSweep, fleetChurn, litmusHunt}

func main() {
	name := flag.String("workload", "", "workload: busywait, fault_sweep, fleet_churn or litmus_hunt")
	seed := flag.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	workers := flag.Int("workers", runtime.NumCPU(), "simulation workers")
	quick := flag.Bool("quick", false, "reduced-length workload (tests)")
	tracePath := flag.String("trace", "", "record spans, a CPU profile and layer counters; write the spans to this file")
	calibrate := flag.Bool("calibrate", false, "fault_sweep only: print the smallest budget multiple k that every completing cell fits")
	flag.Parse()

	if *calibrate {
		if err := calibrateFaultBudget(*seed, *workers, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rec, err := runPass(wl, *seed, *workers, *quick, *tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	if err := json.NewEncoder(out).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runPass generates the workload, runs every unit over the pool and
// assembles the record. Modelled caches start empty in every simulation:
// each unit builds fresh machines.
func runPass(wl *workload, seed uint64, workers int, quick bool, tracePath string) (*passRecord, error) {
	if workers < 1 {
		workers = 1
	}
	var tr *tracer
	if tracePath != "" {
		tr = newTracer()
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
	}
	p := &params{seed: seed, workers: workers, quick: quick, lay: newLayers(tr != nil)}
	idle0, steal0 := hostIdleSteal()

	setupSpan := tr.begin("bench.setup", 0, "")
	units, err := wl.setup(p, tr)
	tr.end(setupSpan)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", wl.name, err)
	}
	unitsStart := time.Now()

	res := make([]unitResult, len(units))
	parallel(len(units), wl.poolWidth(workers), func(i int) {
		sp := tr.begin("bench.unit", 0, units[i].id)
		t0 := time.Now()
		r := units[i].run(tr, sp)
		r.MS = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(sp)
		r.ID = units[i].id
		res[i] = r
	})
	wall := time.Since(start)
	idle1, steal1 := hostIdleSteal()
	var prof *passProfile
	if tr != nil {
		if prof, err = tr.stopProfile(); err != nil {
			return nil, err
		}
	}

	rec := &passRecord{
		Workload:     wl.name,
		Seed:         seed,
		Quick:        quick,
		Workers:      workers,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         os.Getenv("GOGC"),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		CacheState:   "modelled caches start empty in every simulation",
		UnitsStartNS: unitsStart.UnixNano(),
		WallS:        wall.Seconds(),
		CPUS:         cpuSeconds(),
		PeakRSSMB:    peakRSSMB(),
		HostIdleS:    idle1 - idle0,
		HostStealS:   steal1 - steal0,
		Units:        res,
	}
	rec.SimCycles, rec.SimRuns = sim.Totals()
	h := sha256.New()
	for _, u := range res {
		fmt.Fprintf(h, "%s=%s\n", u.ID, u.Digest)
	}
	rec.Digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		// The probes re-drive a sample of the workload after the timed
		// pass and its profile, so wall_s and the CPU shares exclude them.
		if err := runProbes(wl.name, p, tr); err != nil {
			return nil, err
		}
		rec.Layers = p.lay.report(rec, prof, tr)
		if err := tr.write(tracePath); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// digestOf hashes a unit's simulated outcome.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, x := range parts {
		b, err := json.Marshal(x)
		if err != nil {
			// Every digested value is plain data; a marshal failure is a bug.
			panic(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// hostIdleSteal reads the host's cumulative idle and steal CPU seconds
// from the first line of /proc/stat (zero where it is unavailable).
func hostIdleSteal() (idle, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// Fields: user nice system idle iowait irq softirq steal, in clock
	// ticks of 1/100 s on Linux.
	tick := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0
		}
		return v / 100
	}
	return tick(f[4]), tick(f[8])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func init() {
	// The GOGC the pass runs under is part of its record; default to the
	// awgexp batch setting when the caller did not set one.
	if os.Getenv("GOGC") == "" {
		os.Setenv("GOGC", "400")
		debug.SetGCPercent(400)
	}
}
