package decision

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestFormatParseRanksRoundTrip pins the rank-set notation FormatRanks
// renders into decision records and explain notes.
func TestFormatParseRanksRoundTrip(t *testing.T) {
	cases := []struct {
		ranks []int
		want  string
	}{
		{nil, ""},
		{[]int{0}, "0"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 2, 3, 12, 14, 15}, "0-3,12,14-15"},
		{[]int{5, 7, 9}, "5,7,9"},
		{[]int{0, 63, 64, 65, 127}, "0,63-65,127"},
	}
	for _, c := range cases {
		if got := FormatRanks(c.ranks); got != c.want {
			t.Errorf("FormatRanks(%v) = %q, want %q", c.ranks, got, c.want)
		}
	}
}

// sampleRecords is a tiny but representative stream: one job skipped twice
// for different reasons then admitted, one backfill, one drop.
func sampleRecords() []Record {
	return []Record{
		{Round: 1, T: 0, Policy: "easy-backfill", Job: "wide-1", Seq: 1,
			Outcome: Skip, Reason: InsufficientRanks,
			BlockedBy: "wide-0", BlockedBySeq: 0,
			Width: 24, Wait: 0, Free: 8, FreeRanks: "56-63"},
		{Round: 1, T: 0, Policy: "easy-backfill", Job: "narrow-2", Seq: 2,
			Outcome: Admit, Reason: Backfill, Shadow: 50,
			Width: 8, Wait: 0, Free: 8, FreeRanks: "56-63", Ranks: "56-63"},
		{Round: 2, T: 10, Policy: "easy-backfill", Job: "wide-1", Seq: 1,
			Outcome: Skip, Reason: ShadowReservation, Shadow: 50,
			BlockedBy: "wide-0", BlockedBySeq: 0,
			Width: 24, Wait: 10, Free: 8, FreeRanks: "56-63"},
		{Round: 3, T: 50, Policy: "easy-backfill", Job: "wide-1", Seq: 1,
			Outcome: Admit,
			Width:   24, Wait: 50, Free: 32, FreeRanks: "32-63", Ranks: "32-55"},
		{Round: 4, T: 60, Policy: "easy-backfill", Job: "late-3", Seq: 3,
			Outcome: Drop, Reason: DeadlineDrop,
			Width: 4, Wait: 55, Free: 8, FreeRanks: "56-63",
			BlockedBySeq: -1},
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	recs := sampleRecords()
	log := AppendLog(nil, recs)
	// Byte determinism of the serializer itself.
	if !bytes.Equal(log, AppendLog(nil, sampleRecords())) {
		t.Fatal("AppendLog is not deterministic")
	}
	got, err := ReadLog(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadLog returned %d records, want %d", len(got), len(recs))
	}
	// Re-serializing the parsed records must reproduce the bytes exactly.
	if back := AppendLog(nil, got); !bytes.Equal(back, log) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", back, log)
	}
	// Normalized comparison: unset BlockedBySeq comes back as -1.
	want := sampleRecords()
	for i := range want {
		if want[i].BlockedBy == "" {
			want[i].BlockedBySeq = -1
		}
		// Shadow only survives for the reasons that serialize it.
		if want[i].Reason != ShadowReservation && want[i].Reason != Backfill {
			want[i].Shadow = 0
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadLogSkipsEventLines(t *testing.T) {
	recs := sampleRecords()
	var mixed bytes.Buffer
	mixed.WriteString(`{"schema":"repro.events.v1"}` + "\n")
	mixed.WriteString(`{"e":"begin","id":1,"t":0,"pid":0,"tid":0,"name":"run","cat":"sched"}` + "\n")
	mixed.Write(AppendLog(nil, recs[:2]))
	mixed.WriteString(`{"e":"sample","t":1,"name":"cluster_queue_depth","value":3}` + "\n")
	mixed.Write(AppendLog(nil, recs[2:]))
	got, err := ReadLog(&mixed)
	if err != nil {
		t.Fatalf("ReadLog(mixed): %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadLog(mixed) returned %d records, want %d", len(got), len(recs))
	}
	if !bytes.Equal(AppendLog(nil, got), AppendLog(nil, recs)) {
		t.Fatal("mixed-log extraction changed the records")
	}
}

func TestReadLogRejectsWrongSchema(t *testing.T) {
	line := `{"e":"decision","v":"repro.decisions.v999","round":1,"t":0,"policy":"fifo","job":"a","seq":0,"outcome":"admit","width":1,"wait":0,"free":1,"free_ranks":"0"}` + "\n"
	if _, err := ReadLog(strings.NewReader(line)); err == nil {
		t.Fatal("ReadLog accepted a wrong-schema decision line")
	}
}

func TestAttribute(t *testing.T) {
	atts := Attribute(sampleRecords())
	if len(atts) != 3 {
		t.Fatalf("got %d attributions, want 3 terminal jobs: %+v", len(atts), atts)
	}
	for i := 1; i < len(atts); i++ {
		if atts[i].Seq <= atts[i-1].Seq {
			t.Fatalf("attributions not ordered by seq: %+v", atts)
		}
	}
	bySeq := map[int]JobAttribution{}
	for _, ja := range atts {
		bySeq[ja.Seq] = ja
	}
	w := bySeq[1]
	if w.Outcome != Admit || math.Abs(w.Wait-50) > 1e-12 {
		t.Fatalf("wide-1 attribution: %+v", w)
	}
	if len(w.Segments) != 2 {
		t.Fatalf("wide-1 segments: %+v", w.Segments)
	}
	if w.Segments[0].Reason != InsufficientRanks || math.Abs(w.Segments[0].Seconds-10) > 1e-12 {
		t.Errorf("wide-1 segment 0: %+v", w.Segments[0])
	}
	if w.Segments[1].Reason != ShadowReservation || math.Abs(w.Segments[1].Seconds-40) > 1e-12 {
		t.Errorf("wide-1 segment 1: %+v", w.Segments[1])
	}
	var sum float64
	for _, seg := range w.Segments {
		sum += seg.Seconds
	}
	if math.Abs(sum-w.Wait) > 1e-9 {
		t.Errorf("wide-1 segments sum %.6f, wait %.6f", sum, w.Wait)
	}
	if w.Submit != 0 || w.Decided != 50 {
		t.Errorf("wide-1 submit/decided: %+v", w)
	}
	s := w.String()
	if !strings.Contains(s, "behind wide-0") || !strings.Contains(s, "insufficient-ranks") {
		t.Errorf("attribution sentence %q missing cause", s)
	}
	if d := bySeq[3]; d.Outcome != Drop || d.Reason != DeadlineDrop {
		t.Errorf("late-3 attribution: %+v", d)
	}
	if n := bySeq[2]; n.Outcome != Admit || len(n.Segments) != 0 || n.Wait != 0 {
		t.Errorf("narrow-2 attribution: %+v", n)
	}
}

func TestAttributeOmitsNonTerminalJobs(t *testing.T) {
	recs := []Record{
		{Round: 1, T: 0, Policy: "fifo", Job: "stuck", Seq: 0,
			Outcome: Skip, Reason: InsufficientRanks, BlockedBySeq: -1,
			Width: 8, Free: 4, FreeRanks: "0-3"},
	}
	if atts := Attribute(recs); len(atts) != 0 {
		t.Fatalf("non-terminal job attributed: %+v", atts)
	}
}
