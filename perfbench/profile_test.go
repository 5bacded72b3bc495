package main

import (
	"strings"
	"testing"
	"time"
)

func TestChargeTo(t *testing.T) {
	cases := []struct {
		frames []string // innermost first
		want   string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, gcBackground},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"repro/internal/adio.(*Plan).Run", "repro/internal/cluster.(*Cluster).worker"}, "adio"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/workload.Generate", "main.run"}, "workload"},
		{[]string{"strconv.AppendFloat", "repro/internal/obs/decision.AppendJSON",
			"repro/internal/obs.(*JSONLSink).EmitDecision"}, "obs"},
		{[]string{"main.verify", "main.main"}, benchModule},
		{[]string{"repro/internal/wrf.Synth"}, otherModule},
		{nil, gcBackground},
	}
	for _, c := range cases {
		if got := chargeTo(c.frames); got != c.want {
			t.Errorf("chargeTo(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestAttributionOnTinyRun profiles a small scan and checks the charging:
// every decoded sample lands on exactly one ledger row, the rows sum to the
// profile's total CPU, every row is one the ledger reports, and the run's
// own data-plane modules are charged.
func TestAttributionOnTinyRun(t *testing.T) {
	var samples []cpuSample
	deadline := time.Now().Add(20 * time.Second)
	for len(samples) < 30 && time.Now().Before(deadline) {
		prof, err := profiled(func() error {
			s := newScan(1, 128)
			if err := s.setup(nil); err != nil {
				return err
			}
			_, err := s.timed(nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := parseProfile(prof)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, ss...)
	}
	if len(samples) == 0 {
		t.Fatal("no CPU samples in 20s of profiling")
	}
	var led cpuLedger
	led.add(samples)
	var count, rowNS int64
	for _, s := range samples {
		if s.count <= 0 || s.ns <= 0 || s.ns%s.count != 0 {
			t.Fatalf("sample with count %d and %d ns: values decoded wrongly", s.count, s.ns)
		}
		count += s.count
	}
	reported := make(map[string]bool)
	for _, name := range perLayer() {
		reported[name] = true
	}
	for row, ns := range led.rows {
		rowNS += ns
		name := row + ".cpu_s"
		if row == gcBackground {
			name = "runtime.gc_bg_cpu_s"
		}
		if !reported[name] {
			t.Errorf("row %q is charged but the ledger does not report %s", row, name)
		}
	}
	if count != led.samples || rowNS != led.totalNS {
		t.Errorf("ledger holds %d samples / %d ns, profile has %d samples / rows sum to %d ns",
			led.samples, led.totalNS, count, rowNS)
	}
	if led.rows["climate"]+led.rows["ncfile"]+led.rows["cc"]+led.rows["layout"] == 0 {
		t.Errorf("no CPU charged to the data plane of a scan: %v", led.rows)
	}
	for _, s := range samples {
		if len(s.frames) > 0 && strings.HasPrefix(s.frames[0], "repro/") && chargeTo(s.frames) == gcBackground {
			t.Errorf("program stack %v charged to the runtime", s.frames)
		}
	}
}
