package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cc"
)

// measureTiny runs one untraced and one traced iteration of inst and fails
// the test on any failed check.
func measureTiny(t *testing.T, inst instance) *bench {
	t.Helper()
	o, err := buildOracle(inst.queries())
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{inst: inst, oracle: o, rec: newRecorder()}
	if err := b.measure(0, true); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("%d checks failed: %v", b.failed, b.errs)
	}
	return b
}

// TestTracedRunWritesTheSameLogs relies on the digest covering the event,
// series and report bytes: the untraced and the traced iteration agreeing
// means the sink wrappers changed nothing. It also checks the ledger's
// sums and the wrappers' counts against the files.
func TestTracedRunWritesTheSameLogs(t *testing.T) {
	dir := t.TempDir()
	inst, err := newObserved(7, 300, dir)
	if err != nil {
		t.Fatal(err)
	}
	b := measureTiny(t, inst)
	l := b.ledger()
	for _, name := range []string{"obs.events", "obs.decisions", "cluster.jobs", "cluster.memo_hits"} {
		if l[name] == 0 {
			t.Errorf("%s = 0", name)
		}
	}
	for name, file := range map[string]string{"obs.log_bytes": "events.jsonl", "obs.series_bytes": "series.jsonl"} {
		st, err := os.Stat(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if l[name] != float64(st.Size()) {
			t.Errorf("%s = %v, %s holds %d bytes", name, l[name], file, st.Size())
		}
	}
	cpu := l["runtime.gc_bg_cpu_s"]
	for _, m := range cpuModules {
		cpu += l[m+".cpu_s"]
	}
	if math.Abs(cpu-l["process.cpu_s"]) > 1e-9 {
		t.Errorf("CPU rows sum to %v s, process.cpu_s = %v s", cpu, l["process.cpu_s"])
	}
	var self float64
	for _, m := range []string{"bench", "workload", "cluster", "obs", "report"} {
		self += l[m+".self_s"]
	}
	if roots := l["bench.setup_s"] + l["bench.timed_s"]; math.Abs(self-roots) > 1e-9 {
		t.Errorf("self times sum to %v s, root spans to %v s", self, roots)
	}
}

func TestChecksCatchWrongResults(t *testing.T) {
	s := newScan(5, 128)
	o, err := buildOracle(s.queries())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.setup(nil); err != nil {
		t.Fatal(err)
	}
	out, err := s.timed(nil)
	if err != nil {
		t.Fatal(err)
	}
	good := verify(out, o)
	if good.failed != 0 {
		t.Fatalf("correct run fails its checks: %v", good.errs)
	}
	for _, j := range out.jobs {
		j.res.Res.Value++
		switch st := j.res.Res.State.(type) {
		case float64:
			j.res.Res.State = st * (1 + 1e-6)
		case []int64:
			h := append([]int64(nil), st...)
			h[0]++
			j.res.Res.State = h
		case cc.Loc:
			st.Coords = []int64{j.q.start[0], 0, 0}
			j.res.Res.State = st
		default:
			t.Fatalf("unexpected state %T", st)
		}
	}
	out.results[1].Ranks = out.results[0].Ranks
	bad := verify(out, o)
	if want := len(out.jobs) + 1; bad.failed != want {
		t.Errorf("%d checks failed, want every job and the audit (%d): %v", bad.failed, want, bad.errs)
	}
	if bad.digest == good.digest {
		t.Error("digest did not change with the results")
	}
}
