package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// TestExplainQuick runs the counterfactual experiment end to end on the
// quick config and checks its contract: the factual replay is byte-identical
// (the experiment errors out otherwise), the bench carries the counterfactual
// deltas, and the attribution note names a blocking job.
func TestExplainQuick(t *testing.T) {
	cfg := quick
	cfg.ExplainJob = -1
	cfg.ExplainPolicies = "fifo,easy-backfill,priority"
	tb, err := Explain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per -k policy)", len(tb.Rows))
	}
	if tb.Bench["identical_replay"] != 1 {
		t.Fatalf("identical_replay = %v, want 1", tb.Bench["identical_replay"])
	}
	if tb.Bench["decision_records"] <= 0 {
		t.Fatalf("decision_records = %v, want > 0", tb.Bench["decision_records"])
	}
	for _, key := range []string{"wait_factual", "delta_start_easy_backfill",
		"delta_start_priority", "makespan_fifo"} {
		if _, ok := tb.Bench[key]; !ok {
			t.Errorf("bench key %q missing", key)
		}
	}
	// The auto-picked target is the longest-waiting job in a contended mix:
	// its wait must be attributable to a named blocker.
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "behind") {
		t.Fatalf("attribution note names no blocking job: %q", tb.Notes)
	}
	var waterfall string
	for _, n := range tb.Notes {
		if strings.HasPrefix(n, "waterfall:") {
			waterfall = n
		}
	}
	for _, phase := range []string{"queued", "read", "map", "reduce", "on ranks"} {
		if !strings.Contains(waterfall, phase) {
			t.Errorf("waterfall note missing %q: %q", phase, waterfall)
		}
	}
}

// TestExplainTargetSelection pins the -job flag semantics: an explicit seq
// is honored, an out-of-range seq errors.
func TestExplainTargetSelection(t *testing.T) {
	cfg := quick
	cfg.ExplainJob = 0
	cfg.ExplainPolicies = "fifo"
	tb, err := Explain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Title, "wide-0 (seq 0)") {
		t.Fatalf("explicit -job 0 not honored: %q", tb.Title)
	}
	cfg.ExplainJob = 1000
	if _, err := Explain(cfg); err == nil {
		t.Fatalf("out-of-range -job accepted")
	}
	cfg.ExplainJob = 0
	cfg.ExplainPolicies = "fifo,flux-capacitor"
	if _, err := Explain(cfg); err == nil {
		t.Fatalf("unknown -k policy accepted")
	}
}

// decisionLines extracts the raw decision lines from a mixed event log,
// preserving their exact bytes — the same filter the nightly golden gate
// applies with grep.
func decisionLines(log []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(log, []byte("\n")) {
		if decision.IsLine(line) {
			out = append(out, line...)
			out = append(out, '\n')
		}
	}
	return out
}

// TestJobsDecisionLogGolden pins the decision stream of the jobs experiment
// (quick config, fifo policy) byte for byte: admission reasons, blocker
// attribution, free-rank snapshots, and serialization must all stay exactly
// reproducible. Regenerate with UPDATE_SCHED_GOLDEN=1 only for an
// intentional decision-schema or scheduling-semantics change.
func TestJobsDecisionLogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	ot := obs.New()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	ot.SetSink(sink)
	ot.EnableDecisions()
	cfg := quick
	cfg.Obs = ot
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := decisionLines(buf.Bytes())
	if len(got) == 0 {
		t.Fatal("jobs run emitted no decision lines")
	}
	// The extracted lines must round-trip through the parser to identical
	// bytes — the canonical-serialization invariant the golden relies on.
	recs, err := decision.ReadLog(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if rt := decision.AppendLog(nil, recs); !bytes.Equal(rt, got) {
		t.Fatal("decision lines do not round-trip to identical bytes")
	}
	checkGolden(t, "jobs_fifo_decisions.golden.jsonl", got)
}
