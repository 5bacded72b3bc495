package obscli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		f       Flags
		wantErr string // "" = valid
	}{
		{"zero", Flags{}, ""},
		{"events only", Flags{Events: "ev.jsonl"}, ""},
		{"series only", Flags{Series: "se.jsonl"}, ""},
		{"report with events", Flags{Events: "ev.jsonl", Report: "rep.txt"}, ""},
		{"report without events", Flags{Report: "rep.txt"}, "-report needs -events"},
		// The event log always streams: it composes with the series, the
		// report, and every consumer that holds the run in memory.
		{"stream with events", Flags{Events: "ev.jsonl", Trace: "t.json", Explain: true, Serve: ":0"}, ""},
		{"series composes with stream", Flags{Events: "ev.jsonl", Series: "se.jsonl"}, ""},
		{"report composes with stream", Flags{Events: "ev.jsonl", Report: "rep.txt"}, ""},
		{"explain with events", Flags{Events: "ev.jsonl", Explain: true}, ""},
		{"serve with events", Flags{Events: "ev.jsonl", Serve: ":0"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestAnyIncludesSeriesAndReport(t *testing.T) {
	if (&Flags{}).Any() {
		t.Fatal("zero Flags should not be Any")
	}
	if !(&Flags{Series: "se.jsonl"}).Any() {
		t.Fatal("-series alone must install a tracer")
	}
	if !(&Flags{Events: "ev.jsonl", Report: "rep.txt"}).Any() {
		t.Fatal("-report must install a tracer")
	}
	if !(&Flags{Trace: "t.json"}).Any() || !(&Flags{Metrics: "m.txt"}).Any() {
		t.Fatal("-trace and -metrics must install a tracer")
	}
}

func TestRegisterRoundTrip(t *testing.T) {
	var f Flags
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	fl.SetOutput(io.Discard)
	f.Register(fl)
	if err := fl.Parse([]string{
		"-events", "ev.jsonl", "-series", "se.jsonl", "-report", "rep.txt",
		"-trace", "t.json", "-metrics", "m.txt",
	}); err != nil {
		t.Fatal(err)
	}
	if f.Events != "ev.jsonl" || f.Series != "se.jsonl" || f.Report != "rep.txt" ||
		f.Trace != "t.json" || f.Metrics != "m.txt" {
		t.Fatalf("parsed flags: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
}

// TestAttachFinishWritesSeriesAndReport drives the full plane lifecycle
// without a cluster: attach with -events/-series/-report, emit one span and
// one series point through the tracer, finish, and check all three files.
func TestAttachFinishWritesSeriesAndReport(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Events: filepath.Join(dir, "ev.jsonl"),
		Series: filepath.Join(dir, "se.jsonl"),
		Report: filepath.Join(dir, "rep.txt"),
	}
	ot := obs.New()
	p, err := f.Attach(ot, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if ot.Series() == nil {
		t.Fatal("series sink not installed on tracer")
	}
	ot.Span(0, 0, "queued", "sched", 0, 1.5, obs.S("job", "j0"), obs.S("tenant", "t0"))
	ot.Series().Sample(obs.SeriesPoint{Round: 1, T: 1.5, QueueDepth: 1, RanksBusy: 2, RanksTotal: 4})
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	rep, err := os.ReadFile(f.Report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run report", "series points: 1", "t0"} {
		if !strings.Contains(string(rep), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestRecorderOnlyForInProcessConsumers: the plane holds the run in memory
// only for -trace, -explain and -serve; -events alone streams to disk.
func TestRecorderOnlyForInProcessConsumers(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "ev.jsonl")
	for _, tc := range []struct {
		name string
		f    Flags
		want bool
	}{
		{"events", Flags{Events: events}, false},
		{"metrics", Flags{Metrics: filepath.Join(dir, "m.txt")}, false},
		{"trace", Flags{Events: events, Trace: filepath.Join(dir, "t.json")}, true},
		{"explain", Flags{Events: events, Explain: true}, true},
		{"serve", Flags{Serve: "127.0.0.1:0"}, true},
	} {
		ot := obs.New()
		p, err := tc.f.Attach(ot, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ot.Recorder() != nil; got != tc.want {
			t.Errorf("%s: recorder attached = %v, want %v", tc.name, got, tc.want)
		}
		if _, err := p.Finish(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.ln != nil {
			p.ln.Close()
		}
	}
}

// TestFinishWritesTraceAndMetrics: -trace exports the recorded stream and
// -metrics dumps the registry when the plane finishes.
func TestFinishWritesTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Trace: filepath.Join(dir, "t.json"), Metrics: filepath.Join(dir, "m.txt")}
	ot := obs.New()
	p, err := f.Attach(ot, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ot.Span(0, 0, "queued", "sched", 0, 1.5, obs.S("job", "j0"))
	ot.Metrics().Counter("jobs").Add(1)
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := ot.WriteChromeTrace(&want, ot.Recorder().Events()); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if string(trace) != want.String() || !strings.Contains(string(trace), `"name":"queued"`) {
		t.Fatalf("trace file:\n%s\nwant:\n%s", trace, want.String())
	}
	metrics, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if string(metrics) != ot.Metrics().Dump() {
		t.Fatalf("metrics file:\n%s", metrics)
	}
}
