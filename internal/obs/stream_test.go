package obs

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/obs/decision"
)

// emitMix drives one tracer through every event-producing path: open/close
// spans with late attributes, complete spans, instants, counter samples, SLO
// alerts, and decision records.
func emitMix(t *Tracer) {
	t.EnableDecisions()
	for i := 0; i < 50; i++ {
		ts := float64(i)
		id := t.Begin(0, i, "run", "sched", ts, S("job", "j"), I("i", int64(i)))
		t.Span(1, i, "phase", "cc", ts, ts+0.5, F("dur", 0.5))
		t.Instant(0, i, "memo-hit", "sched", ts+0.25)
		t.Counter("cluster_queue_depth", ts, float64(50-i))
		t.AddAttr(id, S("late", "attr"))
		t.End(id, ts+1)
		t.AddAttr(id, S("after", "end"))
		t.Alert("queue_deep", ts+0.75, F("depth", float64(i)))
		t.Decision(decision.Record{Round: i + 1, T: ts, Policy: "fifo",
			Job: "j", Seq: i, Outcome: decision.Admit, BlockedBySeq: -1})
	}
}

// TestRecorderKeepsSinkBytesIdentical: a Recorder teed in beside the JSONL
// sink changes no byte of the log, and it holds exactly the stream the log
// carries — so every fold over it (Spans, decision attribution) reads the
// same run from memory as from the file.
func TestRecorderKeepsSinkBytesIdentical(t *testing.T) {
	run := func(withRecorder bool) ([]byte, *Recorder) {
		var buf bytes.Buffer
		tr := New()
		sink := NewJSONLSink(&buf)
		tr.SetSink(sink)
		var rec *Recorder
		if withRecorder {
			rec = tr.AttachRecorder()
		}
		emitMix(tr)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rec
	}
	plain, _ := run(false)
	teed, rec := run(true)
	if len(plain) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(plain, teed) {
		t.Fatalf("event log changed by the recorder: %d bytes without, %d with", len(plain), len(teed))
	}

	events, err := ReadEvents(bytes.NewReader(teed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, rec.Events()) {
		t.Fatal("recorded events differ from the events read back from the log")
	}
	if !reflect.DeepEqual(Spans(events), Spans(rec.Events())) {
		t.Fatal("spans folded from the log differ from spans folded from the recorder")
	}
	decs, err := decision.ReadLog(bytes.NewReader(teed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decision.AppendLog(nil, decs), decision.AppendLog(nil, rec.Decisions())) {
		t.Fatal("recorded decisions differ from the decision lines of the log")
	}
	if d := rec.Decisions(); cap(d) != len(d) || len(d) != 50 {
		t.Fatalf("decisions len %d cap %d, want an immutable prefix of 50", len(d), cap(d))
	}
}

// TestStreamingWithoutSink: the tracer always streams. With no sink and no
// recorder, recording allocates nothing, so nothing is retained however long
// the run; SetStreaming is an accepted no-op.
func TestStreamingWithoutSink(t *testing.T) {
	tr := New()
	tr.SetStreaming(true)
	tr.EnableDecisions()
	runs := 0
	allocs := testing.AllocsPerRun(100, func() {
		runs++
		id := tr.Begin(0, 0, "run", "sched", 0)
		tr.AddAttr(id)
		tr.End(id, 1)
		tr.Span(0, 0, "phase", "cc", 0, 1)
		tr.Instant(0, 0, "memo-hit", "sched", 0)
		tr.Alert("rule", 0)
		tr.Counter("c", 0, 1)
		tr.Decision(decision.Record{Outcome: decision.Admit})
	})
	if allocs != 0 {
		t.Fatalf("sinkless tracer allocated %.1f/op, want 0", allocs)
	}
	if got, want := tr.NumSpans(), 4*runs; got != want {
		t.Fatalf("NumSpans %d, want %d", got, want)
	}
	var nilTr *Tracer
	nilTr.SetStreaming(true) // nil-safe
}

// TestTeeUnwrapsAndForwards: tee drops nil sinks, returns a lone sink
// unwrapped, and forwards decisions only to sinks that take them.
func TestTeeUnwrapsAndForwards(t *testing.T) {
	if tee() != nil || tee(nil, nil) != nil {
		t.Fatal("tee of no sinks is not nil")
	}
	rec := &Recorder{}
	if tee(nil, rec) != EventSink(rec) {
		t.Fatal("tee of one sink is not that sink")
	}
	mem := &memSink{}
	s := tee(mem, rec)
	s.Emit(Event{E: "sample", Name: "c"})
	s.(decision.Sink).EmitDecision(decision.Record{Job: "j"})
	if len(mem.events) != 1 || len(rec.Events()) != 1 || len(rec.Decisions()) != 1 {
		t.Fatalf("tee forwarded %d/%d events, %d decisions",
			len(mem.events), len(rec.Events()), len(rec.Decisions()))
	}
}

// TestSpansIgnoresUnmatchedIDs pins the fold's rules for IDs: begin IDs are
// sparse (complete spans, instants and alerts take IDs too), an end or attr
// naming an ID no begin carried is ignored, a second end is ignored, and an
// attr after the end still merges.
func TestSpansIgnoresUnmatchedIDs(t *testing.T) {
	events := []Event{
		{E: "end", ID: 1, T: 9},                         // never begun
		{E: "span", T: 0, Dur: 2, Name: "a", Cat: "cc"}, // takes ID 1 in the tracer
		{E: "begin", ID: 2, T: 1, Name: "run", Cat: "sched", Attrs: []Attr{S("job", "x")}},
		{E: "attr", ID: -7, Attrs: []Attr{S("bad", "1")}},
		{E: "end", ID: math.MaxInt, T: 5},
		{E: "end", ID: 2, T: 4},
		{E: "end", ID: 2, T: 8}, // duplicate: ignored
		{E: "attr", ID: 2, Attrs: []Attr{S("deadline_miss", "1")}},
		{E: "span", T: 3, Dur: -1, Name: "neg", Cat: "cc"},
	}
	spans := Spans(events)
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3: %+v", len(spans), spans)
	}
	run := spans[1]
	if run.Name != "run" || run.Dur != 3 || run.ClosedAt != 5 || len(run.Attrs) != 2 ||
		run.Attrs[1].Key != "deadline_miss" {
		t.Fatalf("run span %+v", run)
	}
	if spans[0].Dur != 2 || spans[0].ClosedAt != 1 {
		t.Fatalf("complete span %+v", spans[0])
	}
	if spans[2].Dur != 0 {
		t.Fatalf("negative-length span has dur %g, want 0", spans[2].Dur)
	}
	if len(events[2].Attrs) != 1 {
		t.Fatal("fold appended into the begin event's attributes")
	}
}
