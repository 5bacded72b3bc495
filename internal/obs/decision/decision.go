// Package decision is the scheduler's explainability record: one typed,
// byte-deterministic Record per (admission round, pending job) stating what
// the scheduler did with the job — admitted it, served it from the memo
// layer, dropped it, or skipped it — and *why*, with the blocking job and a
// free-rank snapshot attached. Records serialize to canonical JSONL
// ("repro.decisions.v1" lines, interleavable with the repro.events.v1 event
// log), so two identical runs produce byte-identical decision logs, and a
// recorded log can be re-read and attributed offline.
//
// The package is deliberately below internal/obs in the import graph: obs
// mirrors records into its event sink, the cluster scheduler emits them, and
// the ccexp explain experiment replays them — none of which this package
// knows about.
package decision

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Schema is the versioned identifier carried in every decision line ("v"
// field). Bump the suffix when the serialized shape changes incompatibly.
const Schema = "repro.decisions.v1"

// Outcome is what the scheduler did with a pending job at one round.
type Outcome string

const (
	// Admit: the job started on its placement ranks this round.
	Admit Outcome = "admit"
	// Skip: the job stayed pending; Reason says why.
	Skip Outcome = "skip"
	// Drop: the job's deadline expired while queued and it was removed.
	Drop Outcome = "drop"
	// MemoHit: the job completed instantly from the result cache.
	MemoHit Outcome = "memo-hit"
	// MemoWait: the job attached to an identical in-flight donor (BlockedBy).
	MemoWait Outcome = "memo-wait"
	// Coalesce: the job's operator was fused onto an overlapping donor's
	// physical pass (BlockedBy).
	Coalesce Outcome = "coalesce"
)

// Reason is the typed cause attached to an outcome.
type Reason string

const (
	// InsufficientRanks: the job's width exceeds the free-rank count;
	// BlockedBy is the running job whose completion first makes it fit.
	InsufficientRanks Reason = "insufficient-ranks"
	// ShadowReservation: the job fits the free ranks but starting it could
	// delay the blocked head's EASY reservation; BlockedBy is the head,
	// Shadow the reserved start time.
	ShadowReservation Reason = "shadow-reservation"
	// ConcurrencyCap: Spec.MaxConcurrent leaves no slot; BlockedBy is the
	// running job estimated to finish first.
	ConcurrencyCap Reason = "concurrency-cap"
	// HeadOfLine: the job fits but the policy serves BlockedBy first and
	// that choice does not fit.
	HeadOfLine Reason = "head-of-line"
	// DeadlineDrop: the Drop outcome's reason — the deadline expired.
	DeadlineDrop Reason = "deadline-drop"
	// WaitingOnTwin: the MemoWait/Coalesce reason — service is deferred to
	// the in-flight donor named by BlockedBy.
	WaitingOnTwin Reason = "memo-wait"
	// Backfill: the Admit reason for jobs started ahead of a blocked head
	// holding a reservation at Shadow.
	Backfill Reason = "backfill"
)

// Record is one scheduler decision. T and Wait are virtual seconds; Seq is
// the job's global submission sequence (trace pid - 1). BlockedBySeq is -1
// when no blocking job applies. FreeRanks and Ranks are compact rank-set
// strings (FormatRanks); Free is the free-rank count at decision time
// (before placement, for admissions). Shadow is the EASY reservation's
// start time and is only meaningful (and only serialized) for the
// ShadowReservation and Backfill reasons.
type Record struct {
	Round        int     `json:"round"`
	T            float64 `json:"t"`
	Policy       string  `json:"policy"`
	Job          string  `json:"job"`
	Seq          int     `json:"seq"`
	Outcome      Outcome `json:"outcome"`
	Reason       Reason  `json:"reason,omitempty"`
	BlockedBy    string  `json:"blocked_by,omitempty"`
	BlockedBySeq int     `json:"blocked_seq,omitempty"`
	Width        int     `json:"width"`
	Wait         float64 `json:"wait"`
	Free         int     `json:"free"`
	FreeRanks    string  `json:"free_ranks"`
	Ranks        string  `json:"ranks,omitempty"`
	Shadow       float64 `json:"shadow,omitempty"`
}

// Sink receives decision records as they are emitted. The obs JSONL event
// sink implements it, interleaving decision lines with the event stream.
type Sink interface {
	EmitDecision(Record)
}

// dfloat renders a float deterministically (shortest round-trip form,
// matching the event log's float rendering).
func dfloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// dstr renders s as a JSON string literal.
func dstr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// AppendJSON appends r's canonical JSONL serialization (no trailing
// newline) to dst. The byte layout is a pure function of the Record value:
// field order fixed, floats in shortest round-trip form, optional fields
// present exactly when meaningful — so identical decision streams serialize
// to identical bytes.
func AppendJSON(dst []byte, r Record) []byte {
	var b strings.Builder
	b.WriteString(`{"e":"decision","v":` + dstr(Schema))
	b.WriteString(`,"round":` + strconv.Itoa(r.Round))
	b.WriteString(`,"t":` + dfloat(r.T))
	b.WriteString(`,"policy":` + dstr(r.Policy))
	b.WriteString(`,"job":` + dstr(r.Job))
	b.WriteString(`,"seq":` + strconv.Itoa(r.Seq))
	b.WriteString(`,"outcome":` + dstr(string(r.Outcome)))
	if r.Reason != "" {
		b.WriteString(`,"reason":` + dstr(string(r.Reason)))
	}
	if r.BlockedBySeq >= 0 && r.BlockedBy != "" {
		b.WriteString(`,"blocked_by":` + dstr(r.BlockedBy))
		b.WriteString(`,"blocked_seq":` + strconv.Itoa(r.BlockedBySeq))
	}
	b.WriteString(`,"width":` + strconv.Itoa(r.Width))
	b.WriteString(`,"wait":` + dfloat(r.Wait))
	b.WriteString(`,"free":` + strconv.Itoa(r.Free))
	b.WriteString(`,"free_ranks":` + dstr(r.FreeRanks))
	if r.Ranks != "" {
		b.WriteString(`,"ranks":` + dstr(r.Ranks))
	}
	if r.Reason == ShadowReservation || r.Reason == Backfill {
		b.WriteString(`,"shadow":` + dfloat(r.Shadow))
	}
	b.WriteString("}")
	return append(dst, b.String()...)
}

// AppendLog appends every record as one canonical JSONL line (with trailing
// newlines) — the exact bytes a Sink-connected event log carries for the
// same stream.
func AppendLog(dst []byte, recs []Record) []byte {
	for _, r := range recs {
		dst = AppendJSON(dst, r)
		dst = append(dst, '\n')
	}
	return dst
}

// MarshalJSON renders the canonical line form, so a []Record marshals to
// the same bytes per element that the JSONL log carries.
func (r Record) MarshalJSON() ([]byte, error) {
	return AppendJSON(nil, r), nil
}

// bareRecord strips Record's methods so the wire decode does not recurse
// into Record.UnmarshalJSON.
type bareRecord Record

// wireRecord is the decode shape: Record plus the line discriminator and
// schema fields.
type wireRecord struct {
	E string `json:"e"`
	V string `json:"v"`
	bareRecord
}

// UnmarshalJSON parses a canonical decision line back into r.
func (r *Record) UnmarshalJSON(b []byte) error {
	w := wireRecord{bareRecord: bareRecord{BlockedBySeq: -1}}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.E != "decision" {
		return fmt.Errorf("decision: line type %q, want \"decision\"", w.E)
	}
	if w.V != Schema {
		return fmt.Errorf("decision: schema %q, want %q", w.V, Schema)
	}
	if w.BlockedBy == "" {
		w.bareRecord.BlockedBySeq = -1
	}
	*r = Record(w.bareRecord)
	return nil
}

// decisionPrefix is the canonical line prefix every decision record starts
// with — the cheap filter for mixed event/decision logs.
const decisionPrefix = `{"e":"decision"`

// IsLine reports whether one JSONL line is a decision record.
func IsLine(line []byte) bool {
	return bytes.HasPrefix(line, []byte(decisionPrefix))
}

// ReadLog extracts the decision records from r, in file order. The input
// may be a pure decision log or a mixed repro.events.v1 event log with
// decision lines interleaved (the -events output of an -explain run);
// non-decision lines are skipped. A malformed or wrong-schema decision line
// is an error.
func ReadLog(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		if !IsLine(sc.Bytes()) {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("decision: log line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// ---------------------------------------------------------------------------
// Rank-set strings

// FormatRanks renders an ascending rank list as a compact range string:
// [0,1,2,3,12,14,15] -> "0-3,12,14-15". Empty input renders as "".
func FormatRanks(ranks []int) string {
	if len(ranks) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(ranks); {
		j := i
		for j+1 < len(ranks) && ranks[j+1] == ranks[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(ranks[i]))
		if j > i {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(ranks[j]))
		}
		i = j + 1
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Wait attribution

// Segment is one contiguous stretch of a job's queue wait attributed to a
// single (reason, blocking job) cause.
type Segment struct {
	Reason       Reason
	BlockedBy    string // "" when no blocking job applies
	BlockedBySeq int    // -1 when no blocking job applies
	Seconds      float64
}

// JobAttribution is one job's decision history folded into a wait
// explanation: the terminal outcome, the total queue wait, and the wait
// split into per-cause segments in first-occurrence order. The segment
// seconds always sum to Wait (each inter-round interval is attributed to
// the skip reason recorded at its start).
type JobAttribution struct {
	Seq      int
	Job      string
	Submit   float64 // recovered as terminal T - Wait
	Decided  float64 // terminal decision time (admission/drop/attach)
	Wait     float64
	Outcome  Outcome
	Reason   Reason // terminal record's reason ("" for plain admissions)
	Segments []Segment
}

// String renders the attribution as one human-readable sentence, e.g.
// "hist-4 admitted after 14.2000s queued: 12.1000s insufficient-ranks
// behind sum-0, 2.1000s head-of-line behind sum-3".
func (ja JobAttribution) String() string {
	verb := map[Outcome]string{
		Admit: "admitted", Drop: "dropped", MemoHit: "served from cache",
		MemoWait: "attached to in-flight twin", Coalesce: "coalesced onto donor",
	}[ja.Outcome]
	if verb == "" {
		verb = string(ja.Outcome)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s after %.4fs queued", ja.Job, verb, ja.Wait)
	for i, seg := range ja.Segments {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4fs %s", seg.Seconds, seg.Reason)
		if seg.BlockedBy != "" {
			fmt.Fprintf(&b, " behind %s", seg.BlockedBy)
		}
	}
	return b.String()
}

// segKey identifies a segment cause for merging across rounds.
type segKey struct {
	reason Reason
	bySeq  int
}

// Attribute folds a recorded decision stream into per-job wait
// attributions, ordered by submission sequence. Jobs without a terminal
// record (still pending when the log ends) are omitted. The interval
// between consecutive rounds is charged to the skip reason recorded at the
// interval's start; same-cause intervals merge into one segment.
func Attribute(recs []Record) []JobAttribution {
	type state struct {
		ja       JobAttribution
		lastT    float64
		lastKey  segKey
		lastBy   string
		haveSkip bool
		done     bool
		segIdx   map[segKey]int
	}
	states := map[int]*state{}
	var seqs []int
	charge := func(st *state, until float64) {
		if !st.haveSkip {
			return
		}
		dt := until - st.lastT
		if dt <= 0 {
			return
		}
		i, ok := st.segIdx[st.lastKey]
		if !ok {
			i = len(st.ja.Segments)
			st.segIdx[st.lastKey] = i
			st.ja.Segments = append(st.ja.Segments, Segment{
				Reason: st.lastKey.reason, BlockedBy: st.lastBy,
				BlockedBySeq: st.lastKey.bySeq,
			})
		}
		st.ja.Segments[i].Seconds += dt
	}
	for _, rec := range recs {
		st, ok := states[rec.Seq]
		if !ok {
			st = &state{
				ja:     JobAttribution{Seq: rec.Seq, Job: rec.Job},
				segIdx: map[segKey]int{},
			}
			states[rec.Seq] = st
			seqs = append(seqs, rec.Seq)
		}
		if st.done {
			continue
		}
		charge(st, rec.T)
		if rec.Outcome == Skip {
			st.haveSkip = true
			st.lastT = rec.T
			st.lastKey = segKey{reason: rec.Reason, bySeq: rec.BlockedBySeq}
			st.lastBy = rec.BlockedBy
			continue
		}
		st.ja.Outcome = rec.Outcome
		st.ja.Reason = rec.Reason
		st.ja.Decided = rec.T
		st.ja.Wait = rec.Wait
		st.ja.Submit = rec.T - rec.Wait
		st.done = true
	}
	sort.Ints(seqs)
	out := make([]JobAttribution, 0, len(seqs))
	for _, seq := range seqs {
		if st := states[seq]; st.done {
			out = append(out, st.ja)
		}
	}
	return out
}
