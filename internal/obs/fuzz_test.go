package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSpansFromLog feeds arbitrary event logs through ReadEvents and the
// span fold. The fold runs on logs from outside, so it must never panic or
// allocate by an ID, and its output must respect the stream: one span per
// opening event, every close index pointing at an event of the right kind,
// no negative durations. The checked-in corpus covers end/attr lines with no
// matching begin, huge and negative IDs, and duplicate ends.
func FuzzSpansFromLog(f *testing.F) {
	var buf bytes.Buffer
	tr := New()
	sink := NewJSONLSink(&buf)
	tr.SetSink(sink)
	emitMix(tr)
	sink.Close()
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, log string) {
		events, err := ReadEvents(strings.NewReader(log))
		if err != nil {
			return
		}
		spans := Spans(events)
		opening := 0
		for _, ev := range events {
			switch ev.E {
			case "begin", "span", "instant", "alert":
				opening++
			}
		}
		if len(spans) != opening {
			t.Fatalf("%d spans from %d opening events", len(spans), opening)
		}
		closed := map[int]bool{}
		for _, sp := range spans {
			if sp.Dur < 0 {
				t.Fatalf("negative duration %+v", sp)
			}
			if sp.ClosedAt < 0 {
				continue
			}
			if sp.ClosedAt >= len(events) || closed[sp.ClosedAt] {
				t.Fatalf("close index %d out of range or reused", sp.ClosedAt)
			}
			closed[sp.ClosedAt] = true
			switch events[sp.ClosedAt].E {
			case "begin", "attr", "sample":
				t.Fatalf("span closed by a %q event", events[sp.ClosedAt].E)
			}
		}
		if err := tr.WriteChromeTrace(&bytes.Buffer{}, events); err != nil {
			t.Fatal(err)
		}
	})
}
