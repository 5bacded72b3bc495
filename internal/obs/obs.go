// Package obs is the structured observability layer of the runtime: a
// virtual-clock span tracer plus a typed metrics registry that every layer
// (cluster, cc, adio, pfs, mpi) emits into. Spans nest scheduler → job → cc
// phase → adio iteration → pfs request / mpi message and carry string
// attributes.
//
// The tracer is emit-only: every span, instant, counter sample and decision
// record goes to its event sink as it happens and none is kept. There is one
// recorded stream per run, and every view of it is a fold over []Event
// (Spans): the Chrome trace-event export (loadable in Perfetto), the span
// tables of the experiments, and the offline run report. The events come from
// a Recorder attached in process when a consumer needs them, or from
// ReadEvents on a JSONL log; the fold cannot tell the two apart.
//
// Everything is driven by the deterministic simulation clock, so the same
// program produces byte-identical exports on every run.
//
// A nil *Tracer is a valid, disabled tracer: every method no-ops. Hot paths
// must still guard attribute-carrying calls with `if tr != nil` — building
// the variadic attribute slice allocates even when the receiver is nil.
// Simulation runs ranks one goroutine at a time, so no locking is needed.
package obs

import (
	"strconv"

	"repro/internal/obs/decision"
	"repro/internal/trace"
)

// Attr is one span attribute. Values are pre-rendered strings so a span's
// attribute order (and therefore its JSON) is deterministic.
type Attr struct {
	Key, Val string
}

// S builds a string attribute.
func S(key, val string) Attr { return Attr{Key: key, Val: val} }

// I builds an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(v, 10)} }

// F builds a float attribute with full-precision deterministic formatting.
func F(key string, v float64) Attr {
	return Attr{Key: key, Val: strconv.FormatFloat(v, 'g', -1, 64)}
}

// SpanID identifies an open span returned by Begin/BeginRank. The zero
// SpanID is invalid; End(0, t) is a no-op, so disabled-path code can carry a
// zero id without branching.
type SpanID int

type threadKey struct{ pid, tid int }

// Tracer is the emitting side of the telemetry plane. Create with New; share
// one instance across the whole run (the cluster binds world ranks to job
// pids as jobs are admitted, so rank-routed spans land in the right Perfetto
// process). It holds no per-span, per-sample or per-decision state, so its
// memory stays bounded however long the run.
type Tracer struct {
	reg     *Registry
	nSpans  int // span IDs handed out: begin, span, instant and alert each take one
	procs   map[int]string
	threads map[threadKey]string
	curPID  []int // world rank -> bound pid (0 = cluster/unbound)
	kindCtr [trace.NumKinds]*Counter

	// Telemetry plane (all optional; see events.go, live.go, slo.go). The
	// sink receives spans/instants/counter samples as they are recorded (with
	// the recorder teed in beside it when one is attached); the live cell and
	// SLO engine are driven by the cluster at scheduler round boundaries.
	sink   EventSink
	rec    *Recorder
	live   *Live
	slo    *SLO
	series *SeriesSink

	// Decision tracing (see internal/obs/decision): opt-in, because decision
	// records land in the event log and default-off keeps existing golden
	// event logs byte-stable.
	decOn bool
}

// New returns an empty, enabled tracer with a fresh metrics registry.
func New() *Tracer {
	t := &Tracer{
		reg:     NewRegistry(),
		procs:   make(map[int]string),
		threads: make(map[threadKey]string),
	}
	for k := 0; k < trace.NumKinds; k++ {
		t.kindCtr[k] = t.reg.Counter("rank_time_" + kindSuffix(trace.Kind(k)) + "_seconds")
	}
	return t
}

func kindSuffix(k trace.Kind) string {
	switch k {
	case trace.Compute:
		return "user"
	case trace.Sys:
		return "sys"
	case trace.WaitIO:
		return "wait_io"
	default:
		return "wait_comm"
	}
}

// Enabled reports whether the tracer records anything (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// SetSink installs an event sink: from now on every span begin/end, complete
// span, instant, counter sample, and SLO alert recorded through the tracer
// is mirrored into sink in emission order (see events.go). Nil removes it.
// An attached Recorder stays attached beside the new sink.
func (t *Tracer) SetSink(sink EventSink) {
	if t == nil {
		return
	}
	t.sink = sink
	if t.rec != nil {
		t.sink = tee(sink, t.rec)
	}
}

// AttachRecorder tees an in-memory Recorder in beside the current sink and
// returns it; later calls return the same recorder. Attach it before the
// first event, and only when a consumer needs the run in memory (the
// Perfetto export, a span table, the -explain attribution, live /decisions):
// the recorder is the one place a run is held.
func (t *Tracer) AttachRecorder() *Recorder {
	if t == nil {
		return nil
	}
	if t.rec == nil {
		t.rec = &Recorder{}
		t.sink = tee(t.sink, t.rec)
	}
	return t.rec
}

// Recorder returns the attached recorder (nil on a nil tracer or when none
// is attached; a nil *Recorder reads as empty).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// SetStreaming is a no-op kept for source compatibility: the tracer always
// streams, retaining nothing, and in-memory consumers attach a Recorder.
func (t *Tracer) SetStreaming(bool) {}

// SetLive installs the live frame cell the owning runtime publishes
// telemetry snapshots into (see live.go).
func (t *Tracer) SetLive(l *Live) {
	if t == nil {
		return
	}
	t.live = l
}

// Live returns the installed live cell (nil on a nil tracer or when live
// telemetry is disabled).
func (t *Tracer) Live() *Live {
	if t == nil {
		return nil
	}
	return t.live
}

// SetSeries installs the time-series sink the owning runtime samples one
// SeriesPoint into per scheduler round (see series.go). The sink streams
// and retains nothing.
func (t *Tracer) SetSeries(s *SeriesSink) {
	if t == nil {
		return
	}
	t.series = s
}

// Series returns the installed series sink (nil when disabled).
func (t *Tracer) Series() *SeriesSink {
	if t == nil {
		return nil
	}
	return t.series
}

// SetSLO installs the SLO rule engine the owning runtime evaluates at
// telemetry publish points (see slo.go).
func (t *Tracer) SetSLO(s *SLO) {
	if t == nil {
		return
	}
	t.slo = s
}

// SLOEngine returns the installed SLO engine (nil when disabled).
func (t *Tracer) SLOEngine() *SLO {
	if t == nil {
		return nil
	}
	return t.slo
}

// EnableDecisions turns on scheduler decision tracing: Decision() calls
// reach the event sink from now on. Off by default so event logs only carry
// decision lines when explicitly asked for (-explain / -serve).
func (t *Tracer) EnableDecisions() {
	if t == nil {
		return
	}
	t.decOn = true
}

// DecisionsEnabled reports whether decision tracing is on (false on nil).
func (t *Tracer) DecisionsEnabled() bool { return t != nil && t.decOn }

// Decision emits one scheduler decision into the event sink when the sink
// implements decision.Sink (the JSONL sink and the Recorder do, alone or teed). A
// no-op unless EnableDecisions was called.
func (t *Tracer) Decision(rec decision.Record) {
	if t == nil || !t.decOn {
		return
	}
	if ds, ok := t.sink.(decision.Sink); ok {
		ds.EmitDecision(rec)
	}
}

// Metrics returns the tracer's registry (nil on a nil tracer; the registry's
// methods are themselves nil-safe).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// SetProcessName names a Perfetto process (one per job, pid 0 = cluster).
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.procs[pid] = name
}

// SetThreadName names a Perfetto thread (a world rank within a job pid).
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.threads[threadKey{pid, tid}] = name
}

// BindRank routes rank-addressed spans to pid until UnbindRank: the cluster
// scheduler binds a world rank to a job's pid at admission.
func (t *Tracer) BindRank(rank, pid int) {
	if t == nil || rank < 0 {
		return
	}
	t.ensureRank(rank)
	t.curPID[rank] = pid
}

// UnbindRank returns rank-addressed spans to pid 0.
func (t *Tracer) UnbindRank(rank int) {
	if t == nil || rank < 0 || rank >= len(t.curPID) {
		return
	}
	t.curPID[rank] = 0
}

func (t *Tracer) ensureRank(rank int) {
	for len(t.curPID) <= rank {
		t.curPID = append(t.curPID, 0)
	}
}

func (t *Tracer) rankPID(rank int) int {
	if rank < 0 || rank >= len(t.curPID) {
		return 0
	}
	return t.curPID[rank]
}

// Begin opens a span on an explicit (pid, tid) track and returns its id.
func (t *Tracer) Begin(pid, tid int, name, cat string, start float64, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	t.nSpans++
	id := SpanID(t.nSpans)
	if t.sink != nil {
		t.sink.Emit(Event{E: "begin", ID: int(id), T: start, PID: pid, TID: tid,
			Name: name, Cat: cat, Attrs: attrs})
	}
	return id
}

// End closes an open span. A zero id is ignored.
func (t *Tracer) End(id SpanID, end float64) {
	if t == nil || id <= 0 {
		return
	}
	if t.sink != nil {
		t.sink.Emit(Event{E: "end", ID: int(id), T: end})
	}
}

// AddAttr appends attributes to an open or closed span.
func (t *Tracer) AddAttr(id SpanID, attrs ...Attr) {
	if t == nil || id <= 0 {
		return
	}
	if t.sink != nil {
		t.sink.Emit(Event{E: "attr", ID: int(id), Attrs: attrs})
	}
}

// Span records a complete span on an explicit (pid, tid) track.
func (t *Tracer) Span(pid, tid int, name, cat string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.nSpans++
	if t.sink != nil {
		t.sink.Emit(Event{E: "span", T: start, Dur: end - start, PID: pid, TID: tid,
			Name: name, Cat: cat, Attrs: attrs})
	}
}

// BeginRank opens a span on rank's current (bound pid, tid = rank) track.
func (t *Tracer) BeginRank(rank int, name, cat string, start float64, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	return t.Begin(t.rankPID(rank), rank, name, cat, start, attrs...)
}

// SpanRank records a complete span on rank's current track.
func (t *Tracer) SpanRank(rank int, name, cat string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.Span(t.rankPID(rank), rank, name, cat, start, end, attrs...)
}

// Instant records a zero-duration event (rendered as an arrow in Perfetto).
func (t *Tracer) Instant(pid, tid int, name, cat string, ts float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.nSpans++
	if t.sink != nil {
		t.sink.Emit(Event{E: "instant", T: ts, PID: pid, TID: tid,
			Name: name, Cat: cat, Attrs: attrs})
	}
}

// Counter appends one sample of a Perfetto counter track (queue depth,
// busy ranks) on pid 0.
func (t *Tracer) Counter(name string, ts, val float64) {
	if t == nil {
		return
	}
	if t.sink != nil {
		t.sink.Emit(Event{E: "sample", T: ts, Name: name, Value: val})
	}
}

// Alert records an SLO rule firing as an "alert" event in the event log;
// Spans renders it as an instant on the scheduler track (cat "slo", visible
// in Perfetto).
func (t *Tracer) Alert(name string, ts float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.nSpans++
	if t.sink != nil {
		t.sink.Emit(Event{E: "alert", T: ts, Name: name, Attrs: attrs})
	}
}

// Record implements trace.Tracer: classified rank-time intervals accumulate
// into the rank_time_*_seconds registry counters, so the obs tracer can be
// installed alongside (or instead of) a metrics.Timeline.
func (t *Tracer) Record(rank int, kind trace.Kind, t0, t1 float64) {
	if t == nil || t1 <= t0 {
		return
	}
	t.kindCtr[kind].Add(t1 - t0)
}

// NumSpans returns how many spans have been recorded.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	return t.nSpans
}
