package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"awgsim/internal/event"
	"awgsim/internal/fleet"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/mem"
	simmetrics "awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// span is one timed call the benchmark made into a layer. Spans of one
// unit share its id; times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	prof  bytes.Buffer
	rt0   []metrics.Sample
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, unit string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if unit == "" && parent > 0 {
		unit = t.spans[parent-1].Unit
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// runtimeNames are the runtime/metrics counters the traced pass reads.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (t *tracer) startProfile() error {
	t.rt0 = readRuntime()
	return pprof.StartCPUProfile(&t.prof)
}

// passProfile is what the traced pass measured over its timed part.
type passProfile struct {
	flat    *flatProfile
	runtime map[string]float64 // deltas of runtimeNames
}

func (t *tracer) stopProfile() (*passProfile, error) {
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	flat, err := parseCPUProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	p := &passProfile{flat: flat, runtime: map[string]float64{}}
	for i := range rt1 {
		p.runtime[rt1[i].Name] = sampleValue(rt1[i]) - sampleValue(t.rt0[i])
	}
	return p, nil
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// children cover. The layer is the span name's first dotted component.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered, end := int64(0), s.Start
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		for _, c := range cs {
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// write saves the spans and their per-layer self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		SelfS map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers accumulates the per-layer counts of a traced pass. Every method is
// a no-op on an untraced pass.
type layers struct {
	on bool
	mu sync.Mutex

	// From every unit's results.
	atomics, bankWait, contextBytes, switches         uint64
	resumes, wasted, timeouts, predictAll, predictOne uint64
	spills, rejects                                   uint64
	maxConds                                          int

	// From the sessions the benchmark drives itself.
	events              uint64
	runNS               int64
	mem                 mem.Stats
	newUS, runMS, relUS []float64

	migrations, rewinds, healthEvents int
	lostCycles                        uint64

	generateMS                      float64
	litmusCells, expectedViolations int

	// Layer probes registered at setup, run after the timed pass.
	probes []probe
	// Probe timings.
	buildUS, snapUS, restoreUS, snapKB []float64
}

// probe re-drives one of the workload's own configs after the timed pass:
// it builds the kernel, optionally runs the config as a plain session (for
// the engine and memory counts the public results do not carry), and
// snapshots it at the given cycles, restoring the last snapshot restores
// times.
type probe struct {
	cfg       sim.Config
	session   bool
	snapAt    []event.Cycle
	snapEvery event.Cycle // when non-zero, snapshot every this many cycles to completion
	restores  int
}

func newLayers(on bool) *layers { return &layers{on: on} }

func (l *layers) result(r simmetrics.Result) {
	if !l.on {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.atomics += r.Atomics
	l.bankWait += r.BankWait
	l.contextBytes += r.ContextBytes
	l.switches += r.SwitchesOut + r.SwitchesIn
	l.resumes += r.Resumes
	l.wasted += r.WastedResumes
	l.timeouts += r.Timeouts
	l.predictAll += r.PredictAll
	l.predictOne += r.PredictOne
	l.spills += r.LogSpills
	l.rejects += r.LogRejects
	l.maxConds = max(l.maxConds, r.MaxConditions)
}

func (l *layers) session(s *sim.Session, r simmetrics.Result, tNew, tRun time.Duration) {
	if !l.on {
		return
	}
	m := s.Machine()
	st := m.Mem().Stats()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events += m.Engine().Executed()
	l.runNS += tRun.Nanoseconds()
	l.mem.L1Hits += st.L1Hits
	l.mem.L1Miss += st.L1Miss
	l.mem.L2Hits += st.L2Hits
	l.mem.L2Miss += st.L2Miss
	l.mem.DRAMLines += st.DRAMLines
	l.mem.Arms += st.Arms
	l.newUS = append(l.newUS, float64(tNew.Nanoseconds())/1e3)
	l.runMS = append(l.runMS, float64(tRun.Nanoseconds())/1e6)
}

func (l *layers) release(d time.Duration) {
	if !l.on {
		return
	}
	l.mu.Lock()
	l.relUS = append(l.relUS, float64(d.Nanoseconds())/1e3)
	l.mu.Unlock()
}

func (l *layers) fleet(r *fleet.Result) {
	if !l.on {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.migrations += len(r.Migrations)
	l.healthEvents += len(r.Events)
	for _, w := range r.Workloads {
		l.rewinds += w.Recoveries
		l.lostCycles += w.LostCycles
	}
}

func (l *layers) litmus(cells, expected int) {
	if !l.on {
		return
	}
	l.mu.Lock()
	l.litmusCells += cells
	l.expectedViolations += expected
	l.mu.Unlock()
}

func (l *layers) litmusGenerated(d time.Duration) {
	if l.on {
		l.generateMS = float64(d.Nanoseconds()) / 1e6
	}
}

// probeSample is how many of a workload's configs a traced pass probes
// with snapshots, so the traced run stays a small multiple of the timed one.
const probeSample = 4

func (l *layers) addProbe(prb probe) {
	if l.on {
		l.probes = append(l.probes, prb)
	}
}

// runProbes runs the registered probes one at a time after the timed pass.
func runProbes(wl string, p *params, tr *tracer) error {
	l := p.lay
	built := map[string]bool{}
	for _, prb := range l.probes {
		key := fmt.Sprintf("%s %+v", prb.cfg.Benchmark, prb.cfg.Params)
		if !built[key] {
			built[key] = true
			sp := tr.begin("kernels.Build", 0, "probe")
			t0 := time.Now()
			_, err := kernels.Build(prb.cfg.Benchmark, prb.cfg.Params)
			d := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return err
			}
			l.buildUS = append(l.buildUS, float64(d.Nanoseconds())/1e3)
		}
		if prb.session {
			sp := tr.begin("bench.probe", 0, "probe")
			_, err := runSession(prb.cfg, l, tr, sp)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s probe %s/%s: %w", wl, prb.cfg.Benchmark, prb.cfg.Policy, err)
			}
		}
		if len(prb.snapAt) > 0 || prb.snapEvery > 0 {
			if err := snapshotProbe(prb, l, tr); err != nil {
				return fmt.Errorf("%s snapshot probe %s/%s: %w", wl, prb.cfg.Benchmark, prb.cfg.Policy, err)
			}
		}
	}
	return nil
}

func snapshotProbe(prb probe, l *layers, tr *tracer) error {
	s, err := sim.NewSession(prb.cfg)
	if err != nil {
		return err
	}
	defer s.Release()
	m := s.Machine()
	m.Prepare()
	at := prb.snapAt
	if prb.snapEvery > 0 {
		at = nil
		for c := prb.snapEvery; c <= event.Cycle(m.Config().MaxCycles); c += prb.snapEvery {
			at = append(at, c)
		}
	}
	var last *gpu.Snapshot
	for _, c := range at {
		m.RunTo(c)
		sp := tr.begin("gpu.Machine.Snapshot", 0, "probe")
		t0 := time.Now()
		last = m.Snapshot()
		d := time.Since(t0)
		tr.end(sp)
		l.snapUS = append(l.snapUS, float64(d.Nanoseconds())/1e3)
		l.snapKB = append(l.snapKB, float64(last.Bytes())/1024)
		if m.Done() || m.Deadlocked() || m.Engine().Stopped() {
			break
		}
	}
	for range prb.restores {
		sp := tr.begin("gpu.Machine.Restore", 0, "probe")
		t0 := time.Now()
		m.Restore(last)
		d := time.Since(t0)
		tr.end(sp)
		l.restoreUS = append(l.restoreUS, float64(d.Nanoseconds())/1e3)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profiledModules are the awgsim/internal modules whose flat CPU share the
// traced pass reports.
var profiledModules = []string{"event", "gpu", "mem", "syncmon", "cp", "policy", "core", "hashutil",
	"kernels", "prog", "sim", "fault", "fleet", "litmus"}

// spanLayers are the layers the benchmark's spans enter: its own
// code, then each public package it calls.
var spanLayers = []string{"bench", "sim", "gpu", "kernels", "fleet", "litmus"}

// report assembles the per-layer metrics of a traced pass. Process-wide
// counters (sim, gpu.ExecStats) are read once: a pass is a fresh process.
func (l *layers) report(rec *passRecord, prof *passProfile, tr *tracer) map[string]float64 {
	ops, _ := gpu.ExecStats()
	forks, saved, _ := sim.ForkStats()
	hits := sim.CacheHits()
	out := map[string]float64{
		"event.events":        float64(l.events),
		"event.ns_per_event":  ratio(float64(l.runNS), float64(l.events)),
		"event.mevents_per_s": ratio(float64(l.events)*1e3, float64(l.runNS)),

		"gpu.ops_interpreted":    float64(ops),
		"gpu.atomics":            float64(l.atomics),
		"gpu.bank_wait_mcycles":  float64(l.bankWait) / 1e6,
		"gpu.switches":           float64(l.switches),
		"gpu.context_mb":         float64(l.contextBytes) / (1 << 20),
		"gpu.snapshot_us":        median(l.snapUS),
		"gpu.restore_us":         median(l.restoreUS),
		"gpu.snapshot_kb":        median(l.snapKB),
		"mem.l1_hit_ratio":       ratio(float64(l.mem.L1Hits), float64(l.mem.L1Hits+l.mem.L1Miss)),
		"mem.l2_hit_ratio":       ratio(float64(l.mem.L2Hits), float64(l.mem.L2Hits+l.mem.L2Miss)),
		"mem.dram_mlines":        float64(l.mem.DRAMLines) / 1e6,
		"mem.arms":               float64(l.mem.Arms),
		"syncmon.log_spills":     float64(l.spills),
		"syncmon.log_rejects":    float64(l.rejects),
		"syncmon.max_conditions": float64(l.maxConds),

		"policy.resumes":             float64(l.resumes),
		"policy.wasted_resume_ratio": ratio(float64(l.wasted), float64(l.resumes)),
		"policy.timeouts":            float64(l.timeouts),
		"policy.predict_all":         float64(l.predictAll),
		"policy.predict_one":         float64(l.predictOne),

		"kernels.build_us":         median(l.buildUS),
		"sim.session_new_us":       median(l.newUS),
		"sim.session_run_ms":       median(l.runMS),
		"sim.session_release_us":   median(l.relUS),
		"sim.cache_hits":           float64(hits),
		"sim.cache_hit_ratio":      ratio(float64(hits), float64(rec.SimRuns)),
		"sim.forks":                float64(forks),
		"sim.prefix_mcycles_saved": float64(saved) / 1e6,

		"fleet.migrations":    float64(l.migrations),
		"fleet.rewinds":       float64(l.rewinds),
		"fleet.lost_mcycles":  float64(l.lostCycles) / 1e6,
		"fleet.health_events": float64(l.healthEvents),

		"litmus.generate_ms":          l.generateMS,
		"litmus.cells":                float64(l.litmusCells),
		"litmus.expected_violations":  float64(l.expectedViolations),
		"runtime.gc_cpu_share":        ratio(prof.runtime[runtimeNames[0]], prof.runtime[runtimeNames[1]]),
		"runtime.alloc_mb":            prof.runtime[runtimeNames[2]] / (1 << 20),
		"runtime.allocs_k":            prof.runtime[runtimeNames[3]] / 1e3,
		"runtime.gc_cycles":           prof.runtime[runtimeNames[4]],
		"runtime.map_cpu_share":       prof.flat.share(isMapOp),
		"model.sim_mcycles":           float64(rec.SimCycles) / 1e6,
		"model.runs":                  float64(rec.SimRuns),
		"trace.cpu_profile_samples_k": float64(prof.flat.total) / 1e3,
	}
	for _, mod := range profiledModules {
		out[mod+".cpu_share"] = prof.flat.share(modulePrefix(mod))
	}
	self := tr.selfTimes()
	for _, layer := range spanLayers {
		out["selftime."+layer+"_s"] = self[layer]
	}
	return out
}
