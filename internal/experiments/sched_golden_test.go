package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// cliQuick is the configuration `ccexp -quick` builds from its flag
// defaults, so the table and trace goldens below are byte-for-byte the
// command's output.
var cliQuick = Config{Scale: 0.1, Quick: true, ExplainJob: -1}

// checkGolden compares got with testdata/name, or rewrites the file when
// UPDATE_SCHED_GOLDEN is set. A mismatch reports the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_SCHED_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s updated: %d bytes", name, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_SCHED_GOLDEN=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s length differs: got %d lines, want %d", name, len(gl), len(wl))
}

// jobsFIFOEvents runs the jobs experiment (quick config, fifo scheduling)
// with the structured event log attached and returns the JSONL bytes.
func jobsFIFOEvents(t *testing.T) []byte {
	t.Helper()
	ot := obs.New()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	ot.SetSink(sink)
	cfg := quick
	cfg.Obs = ot
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFIFOPolicyEventLogGolden pins the fifo scheduling policy to the
// pre-policy-refactor scheduler, byte for byte: the committed golden event
// log was generated by the monolithic FIFO scheduler (before admission and
// placement were extracted behind cluster.Policy), and the default policy
// must keep reproducing it exactly — same admissions, same placements, same
// virtual timestamps, same telemetry emission order. Regenerate with
// UPDATE_SCHED_GOLDEN=1 go test ./internal/experiments -run EventLogGolden
// only for an intentional scheduling-semantics change.
func TestFIFOPolicyEventLogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	checkGolden(t, "jobs_fifo_events.golden.jsonl", jobsFIFOEvents(t))
}

// TestJobsChromeTraceGolden pins the Perfetto export of `ccexp -quick
// -trace t.json jobs` byte for byte: span order, durations, attributes,
// track names and counter samples.
func TestJobsChromeTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	ot := obs.New()
	rec := ot.AttachRecorder()
	cfg := cliQuick
	cfg.Obs = ot
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ot.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "jobs_fifo_trace.golden.json", buf.Bytes())
}

// TestSpanTablesGolden pins the two tables folded from the span trace —
// `ccexp -quick profile-jobs` and `ccexp -quick explain` — to their stdout
// bytes.
func TestSpanTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiments; skipped under -short")
	}
	for _, id := range []string{"profile-jobs", "explain"} {
		r, _ := ByID(id)
		tb, err := r.Run(cliQuick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		tb.Fprint(&buf)
		fmt.Fprintln(&buf)
		checkGolden(t, id+".golden.txt", buf.Bytes())
	}
}
