// Command perfbench is the repository's host-time benchmark. It drives the
// simulator through the public entry points of workload, cluster, climate,
// obs and report, and measures how long the host takes, end to end and per
// module, on three workloads that each load a different group of modules:
//
//   - scan: the paper's regime; synthesis, decode and absorb do the work.
//   - stream: ~50k multi-tenant jobs, ~99% served by the memo; submission,
//     the scheduler and the allocator do the work.
//   - observed: a recorded ~10k-job stream replayed with the full telemetry
//     plane on, then analysed offline; obs and report do the work.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload scan --seed 42 --seconds 20 --trace 0
//
// Each iteration sets up (setup_s), runs the timed phase (wall_s) and
// checks every job's result against an independent oracle, audits the
// placement and compares a determinism digest across iterations. With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 iterations alternate untraced and traced, and it carries the
// per-layer ledger of the traced ones. Any failed check makes the result
// incorrect and the exit code 1.
//
// Load shape: one process, GOMAXPROCS as the runtime sets it (the number of
// CPUs), and no goroutines of the benchmark's own besides the profiler's.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed seeds.json
var seedsJSON []byte

// seeds.json names the default seed and the held-out seed (kept out of
// tuning, for re-checking claims) and pins each workload's determinism
// digest for both, so a changed simulated outcome fails across processes,
// not only between the iterations of one run.
type seeds struct {
	DefaultSeed uint64                       `json:"default_seed"`
	HeldOutSeed uint64                       `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"` // workload → seed → digest
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var base seeds
	if err := json.Unmarshal(seedsJSON, &base); err != nil {
		fmt.Fprintf(stderr, "perfbench: seeds.json: %v\n", err)
		return 2
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: scan, stream or observed")
	seed := fl.Uint64("seed", base.DefaultSeed, "seed the workload's inputs are made from")
	seconds := fl.Float64("seconds", 10, "measurement time in seconds (at least one iteration runs)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from traced iterations")
	spansDir := fl.String("spans-dir", "", "directory the traced iterations' spans are written to (none if empty)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b, err := prepare(*name, *seed, dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b.pinned = base.Digests[*name][strconv.FormatUint(*seed, 10)]
	if err := b.measure(time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *trace == 1 && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := b.rec.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res := b.result(*trace == 1)
	b.summarize(stdout, *name, *seed, *trace == 1)
	for _, err := range b.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one workload instance under measurement.
type bench struct {
	inst   instance
	oracle oracle
	pinned string // expected digest for this seed, if seeds.json has one

	its               []iteration
	rec               *recorder // traced iterations' spans and wrapper counts
	cpu               cpuLedger // traced iterations' CPU samples
	digest            string
	errs              []error
	attempted, failed int
}

// iteration is one measured setup + timed phase.
type iteration struct {
	traced      bool
	setup, wall float64 // seconds
	rt0, rt1    runtimeSample
	live        float64 // live heap bytes after the timed phase
	completed   int
	fileHashes  []string
	bytes       int64
	counts      []named
}

func prepare(name string, seed uint64, dir string) (*bench, error) {
	inst, err := newInstance(name, seed, dir)
	if err != nil {
		return nil, err
	}
	o, err := buildOracle(inst.queries())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &bench{inst: inst, oracle: o, rec: newRecorder()}, nil
}

// measure runs iterations until the next one would overrun the budget. In
// a traced measurement they alternate untraced and traced, untraced first.
func (b *bench) measure(budget time.Duration, traced bool) error {
	start := time.Now()
	for i := 0; ; i++ {
		var rec *recorder
		if traced && i%2 == 1 {
			rec = b.rec
			rec.iter = i
		}
		if err := b.iterate(rec); err != nil {
			return err
		}
		done := len(b.its) >= 1 && (!traced || len(b.its) >= 2)
		elapsed := time.Since(start)
		if done && elapsed+elapsed/time.Duration(len(b.its)) > budget {
			return nil
		}
	}
}

// phase runs fn, under the CPU profiler and inside a root span when rec is
// set, and returns its host time and the profile.
func phase(rec *recorder, name string, fn func() error) (float64, []byte, error) {
	if rec == nil {
		t := time.Now()
		err := fn()
		return time.Since(t).Seconds(), nil, err
	}
	var d float64
	prof, err := profiled(func() error {
		t := time.Now()
		err := rec.do(name, fn)
		d = time.Since(t).Seconds()
		return err
	})
	return d, prof, err
}

func (b *bench) iterate(rec *recorder) error {
	it := iteration{traced: rec != nil}
	runtime.GC()
	var err error
	var setupProf, timedProf []byte
	if rec == nil {
		it.setup, err = b.repeatSetup()
	} else {
		it.setup, setupProf, err = phase(rec, "bench.setup", func() error { return b.inst.setup(rec) })
	}
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	it.rt0 = readRuntime()
	var out *outcome
	it.wall, timedProf, err = phase(rec, "bench.timed", func() (err error) {
		out, err = b.inst.timed(rec)
		return err
	})
	if err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	it.rt1 = readRuntime()
	runtime.GC()
	it.live = readRuntime()[mHeapLive]
	if err := out.resolve(); err != nil {
		return err
	}

	v := verify(out, b.oracle)
	it.completed, it.bytes, it.fileHashes = v.completed, v.bytes, v.fileHashes
	b.attempted += v.attempted + 1
	b.failed += v.failed
	b.errs = append(b.errs, v.errs...)
	switch {
	case b.digest == "" && b.pinned != "" && v.digest != b.pinned:
		b.fail(fmt.Errorf("digest %s differs from the one pinned for this seed, %s", v.digest, b.pinned))
	case b.digest != "" && v.digest != b.digest:
		b.fail(fmt.Errorf("iteration %d digest %s differs from the first iteration's %s", len(b.its), v.digest, b.digest))
	}
	if b.digest == "" {
		b.digest = v.digest
	}
	if rec != nil {
		it.counts = simCounts(out)
		for _, p := range [][]byte{setupProf, timedProf} {
			samples, err := parseProfile(p)
			if err != nil {
				return err
			}
			b.cpu.add(samples)
		}
	}
	b.its = append(b.its, it)
	return nil
}

// An untraced iteration repeats a cheap setup (up to setupReps times while
// under setupBudget) and takes the median as its setup_s sample, so that a
// sub-millisecond setup is not a single timer reading. The timed phase
// runs on the machine the last repeat built.
const (
	setupReps   = 25
	setupBudget = 20 * time.Millisecond
)

func (b *bench) repeatSetup() (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < setupReps && (len(ds) == 0 || time.Since(start) < setupBudget) {
		t := time.Now()
		if err := b.inst.setup(nil); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return median(ds), nil
}

func (b *bench) fail(err error) {
	b.failed++
	b.errs = append(b.errs, err)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"mb_per_s", "MB/s"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
}

// e2e returns each end-to-end metric's per-iteration values over the
// untraced iterations.
func (b *bench) e2e() map[string][]float64 {
	m := make(map[string][]float64)
	for _, it := range b.its {
		if it.traced {
			continue
		}
		m["wall_s"] = append(m["wall_s"], it.wall)
		m["setup_s"] = append(m["setup_s"], it.setup)
		m["jobs_per_s"] = append(m["jobs_per_s"], float64(it.completed)/it.wall)
		m["mb_per_s"] = append(m["mb_per_s"], float64(it.bytes)/1e6/it.wall)
		m["alloc_mb"] = append(m["alloc_mb"], (it.rt1[mAllocBytes]-it.rt0[mAllocBytes])/1e6)
		m["heap_live_mb"] = append(m["heap_live_mb"], it.live/1e6)
	}
	return m
}

// perLayer lists the ledger's metrics in report order; unitOf gives units.
func perLayer() []string {
	names := make([]string, 0, 64)
	for _, m := range cpuModules {
		names = append(names, m+".cpu_s")
	}
	names = append(names,
		"runtime.gc_bg_cpu_s", "process.cpu_s",
		"runtime.gc_cpu_s", "runtime.gc_cycles", "runtime.alloc_objects",
		"bench.setup_s", "bench.timed_s", "bench.untraced_wall_s", "bench.trace_overhead_pct",
		"workload.generate_s", "workload.write_s", "workload.read_s",
		"cluster.provision_s", "cluster.submit_s", "cluster.run_s",
		"obs.emit_s", "obs.close_s", "report.load_s", "report.build_s", "report.write_s",
		"bench.self_s", "workload.self_s", "cluster.self_s", "obs.self_s", "report.self_s",
		"obs.events", "obs.decisions", "obs.log_bytes", "obs.series_bytes",
		"cluster.jobs", "cluster.dropped", "cluster.memo_hits", "cluster.memo_misses",
		"cluster.memo_hit_ratio", "cluster.virtual_makespan_s",
		"cc.map_elements", "cc.shuffle_bytes", "cc.shuffle_ratio", "sim.skipped_wakeups",
	)
	return names
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "count"
}

// ledger averages the traced iterations' per-layer values.
func (b *bench) ledger() map[string]float64 {
	var traced, untraced []float64
	var last iteration
	l := make(map[string]float64)
	for _, it := range b.its {
		if !it.traced {
			untraced = append(untraced, it.wall)
			continue
		}
		traced = append(traced, it.wall)
		last = it
		l["runtime.gc_cpu_s"] += it.rt1[mGCCPU] - it.rt0[mGCCPU]
		l["runtime.gc_cycles"] += it.rt1[mGCCycles] - it.rt0[mGCCycles]
		l["runtime.alloc_objects"] += it.rt1[mAllocObjs] - it.rt0[mAllocObjs]
	}
	n := float64(len(traced))
	for row, ns := range b.cpu.rows {
		if row == gcBackground {
			l["runtime.gc_bg_cpu_s"] = float64(ns) / 1e9
		} else {
			l[row+".cpu_s"] = float64(ns) / 1e9
		}
	}
	l["process.cpu_s"] = float64(b.cpu.totalNS) / 1e9
	calls, self := spanTimes(b.rec.spans)
	for name, d := range calls {
		l[name+"_s"] = d
	}
	for m, d := range self {
		l[m+".self_s"] = d
	}
	l["obs.emit_s"] = b.rec.emit.Seconds()
	l["obs.events"] = float64(b.rec.events)
	l["obs.decisions"] = float64(b.rec.decisions)
	l["obs.log_bytes"] = float64(b.rec.logBytes)
	l["obs.series_bytes"] = float64(b.rec.serBytes)
	for k := range l {
		l[k] /= n
	}
	for _, c := range last.counts {
		l[c.name] = c.value
	}
	l["bench.untraced_wall_s"] = median(untraced)
	l["bench.trace_overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	return l
}

func (b *bench) result(traced bool) result {
	r := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric),
	}
	if !traced {
		e := b.e2e()
		for _, m := range endToEnd {
			r.Metrics[m.name] = metric{median(e[m.name]), m.unit}
		}
		return r
	}
	l := b.ledger()
	for _, name := range perLayer() {
		r.Metrics[name] = metric{l[name], unitOf(name)}
	}
	return r
}

// summarize prints the human-readable report: every end-to-end metric as
// median and quartiles with the iteration count, the error rate, and in
// traced runs the per-layer ledger.
func (b *bench) summarize(w io.Writer, name string, seed uint64, traced bool) {
	ntraced := 0
	for _, it := range b.its {
		if it.traced {
			ntraced++
		}
	}
	fmt.Fprintf(w, "perfbench %s seed=%d gomaxprocs=%d iterations=%d traced=%d digest=%s\n",
		name, seed, runtime.GOMAXPROCS(0), len(b.its), ntraced, b.digest)
	e := b.e2e()
	for _, m := range endToEnd {
		vs := e[m.name]
		q1, med, q3 := quartiles(vs)
		fmt.Fprintf(w, "  %-14s %12.6g  [q1 %.6g, q3 %.6g]  n=%d  %s\n", m.name, med, q1, q3, len(vs), m.unit)
	}
	rate := 0.0
	if b.attempted > 0 {
		rate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "  %-14s %12.6g  (%d failed of %d checked)  ratio\n", "error_rate", rate, b.failed, b.attempted)
	if !traced {
		return
	}
	if files := b.its[0].fileHashes; len(files) > 0 {
		same := true
		for _, it := range b.its {
			same = same && slices.Equal(it.fileHashes, files)
		}
		fmt.Fprintf(w, "  telemetry files identical with and without the sink wrappers: %t (sha256 %s)\n",
			same, strings.Join(files, " "))
	}
	l := b.ledger()
	fmt.Fprintf(w, "  per-layer ledger, mean of %d traced iterations:\n", ntraced)
	for _, name := range perLayer() {
		fmt.Fprintf(w, "    %-28s %14.6g  %s\n", name, l[name], unitOf(name))
	}
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quartiles returns the first quartile, median and third quartile of vs,
// by linear interpolation between order statistics.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}
