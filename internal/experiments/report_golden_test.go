package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

// jobsFIFOReport runs the jobs experiment (quick config, fifo) with events,
// decision records, and the round series all attached, then renders the run
// report. The source label is pinned so the report bytes are independent of
// the temp dir.
func jobsFIFOReport(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.jsonl")
	seriesPath := filepath.Join(dir, "series.jsonl")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	ot := obs.New()
	sink := obs.NewJSONLSink(ef)
	ser := obs.NewSeriesSink(sf)
	ot.SetSink(sink)
	ot.SetSeries(ser)
	ot.EnableDecisions()
	cfg := quick
	cfg.Obs = ot
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	for _, close := range []func() error{sink.Close, ser.Close, ef.Close, sf.Close} {
		if err := close(); err != nil {
			t.Fatal(err)
		}
	}
	d, err := report.Load(eventsPath, seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	d.EventsPath = "events.jsonl" // stable label for the golden
	var buf bytes.Buffer
	if err := report.Build(d, 5).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobsReportGolden pins the run report, byte for byte, on the quick
// jobs experiment: the report is a pure function of the event/decision/
// series logs, which are themselves byte-deterministic, so any drift here
// means either the telemetry or the analyzer changed shape. Regenerate with
// UPDATE_SCHED_GOLDEN=1 go test ./internal/experiments -run ReportGolden
// only for an intentional schema or report-format change.
func TestJobsReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	checkGolden(t, "jobs_fifo_report.golden.txt", jobsFIFOReport(t))
}

// TestReportExperimentSelfDemo smoke-tests the ccexp report experiment's
// self-demo path: no input logs configured, so it records a quick workload
// run and reports on it.
func TestReportExperimentSelfDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("records a workload run; skipped under -short")
	}
	tb, err := ReportExp(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run report", "-- tenants --", "-- summary (json) --"} {
		if !bytes.Contains([]byte(tb.Chart), []byte(want)) {
			t.Fatalf("self-demo report missing %q", want)
		}
	}
}
