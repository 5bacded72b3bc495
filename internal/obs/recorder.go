package obs

import "repro/internal/obs/decision"

// This file holds the in-memory side of the one recorded stream: the
// Recorder that keeps a run's events when an in-process consumer needs them,
// the tee that attaches it beside a file sink, and Spans, the fold every
// span view is computed with.

// Recorder is the in-memory event sink: it keeps every event and decision
// record it receives, in emission order. Attach it with
// Tracer.AttachRecorder only when a consumer needs the run in memory;
// everything else streams through the tracer and is never held.
type Recorder struct {
	events    []Event
	decisions []decision.Record
}

// Emit implements EventSink.
func (r *Recorder) Emit(e Event) { r.events = append(r.events, e) }

// EmitDecision implements decision.Sink.
func (r *Recorder) EmitDecision(rec decision.Record) { r.decisions = append(r.decisions, rec) }

// Events returns the recorded events in emission order (nil on a nil
// recorder). The slice is owned by the recorder.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Decisions returns the decision records emitted so far (nil on a nil
// recorder). The result is an immutable prefix: its capacity equals its
// length and recorded elements are never rewritten, so it can be handed to
// concurrent readers while the recorder keeps appending.
func (r *Recorder) Decisions() []decision.Record {
	if r == nil {
		return nil
	}
	n := len(r.decisions)
	return r.decisions[:n:n]
}

// tee returns a sink forwarding every event to each non-nil sink in order,
// and every decision record to those implementing decision.Sink. With one
// non-nil sink it returns that sink unwrapped; with none, nil.
func tee(sinks ...EventSink) EventSink {
	var out teeSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

type teeSink []EventSink

// Emit implements EventSink.
func (t teeSink) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// EmitDecision implements decision.Sink.
func (t teeSink) EmitDecision(rec decision.Record) {
	for _, s := range t {
		if ds, ok := s.(decision.Sink); ok {
			ds.EmitDecision(rec)
		}
	}
}

// Span is one span rebuilt from an event stream by Spans.
type Span struct {
	Name, Cat string
	PID, TID  int
	Start     float64
	// Dur is the length as emitted: a "span" event's dur, or the closing
	// "end" time minus the "begin" time. Instants, alerts, spans never
	// closed and negative lengths read as 0.
	Dur float64
	// Attrs are the opening event's attributes followed by those of each
	// "attr" event for the span, in stream order.
	Attrs []Attr
	// ClosedAt is the index of the event that completed the span — its own
	// for complete spans, instants and alerts, the "end" for a begin/end
	// pair — or -1 if it never closed. Ordering by ClosedAt is the order in
	// which a streaming reader sees spans finish.
	ClosedAt int
}

// Spans rebuilds the spans of an event stream, in creation order. Each
// "begin", "span", "instant" and "alert" event opens one span; alerts land
// on the scheduler track (pid 0, tid 0) with cat "slo". "end" and "attr"
// events name a "begin" by its ID. The tracer's ID counter also advances on
// complete spans, instants and alerts, so begin IDs are sparse and are
// matched through a map: an "end" or "attr" for an ID no "begin" carried is
// ignored, as is a second "end" for a closed span. Attributes arriving after
// the "end" still merge — the scheduler annotates run spans after closing
// them. Nothing is allocated or indexed by an ID, so the fold is safe on
// logs from outside.
func Spans(events []Event) []Span {
	nSpans, nBegins := 0, 0
	for _, ev := range events {
		switch ev.E {
		case "begin":
			nBegins++
			nSpans++
		case "span", "instant", "alert":
			nSpans++
		}
	}
	// Sized up front: the report folds whole run logs, and growing these
	// by doubling would allocate about twice the final size.
	spans := make([]Span, 0, nSpans)
	begins := make(map[int]int, nBegins) // begin ID -> index into spans
	for i, ev := range events {
		sp := Span{Name: ev.Name, Cat: ev.Cat, PID: ev.PID, TID: ev.TID,
			Start: ev.T, Attrs: ev.Attrs, ClosedAt: i}
		switch ev.E {
		case "begin":
			sp.ClosedAt = -1
			begins[ev.ID] = len(spans)
		case "span":
			sp.Dur = nonNegative(ev.Dur)
		case "instant": // zero length, as built
		case "alert":
			sp.Cat, sp.PID, sp.TID = "slo", 0, 0
		case "end":
			if k, ok := begins[ev.ID]; ok && spans[k].ClosedAt < 0 {
				spans[k].Dur = nonNegative(ev.T - spans[k].Start)
				spans[k].ClosedAt = i
			}
			continue
		case "attr":
			if k, ok := begins[ev.ID]; ok {
				a := spans[k].Attrs
				// Full slice expression: never append into the event's array.
				spans[k].Attrs = append(a[:len(a):len(a)], ev.Attrs...)
			}
			continue
		default:
			continue
		}
		spans = append(spans, sp)
	}
	return spans
}

func nonNegative(d float64) float64 {
	if d < 0 {
		return 0
	}
	return d
}
