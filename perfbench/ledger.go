package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// span is one traced call into a module, timed on the host clock.
type span struct {
	Name   string  `json:"name"`
	Iter   int     `json:"iter"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at the root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Inner is time inside the span spent in calls too frequent to span
	// individually: the obs sink wrappers' Emit and EmitDecision.
	Inner float64 `json:"inner_s,omitempty"`
}

func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// recorder is the traced run's ledger. A nil recorder records nothing, so
// the workloads call the same code in untraced runs.
type recorder struct {
	ctx    context.Context
	origin time.Time
	iter   int
	cur    int
	spans  []span

	// Filled by the obs wrappers.
	emit               time.Duration
	events, decisions  int64
	logBytes, serBytes int64
}

func newRecorder() *recorder {
	return &recorder{ctx: context.Background(), origin: time.Now(), cur: -1}
}

// do runs fn inside a span named "<module>.<call>" that also labels the CPU
// samples fn causes (runtime/pprof label "span").
func (r *recorder) do(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Iter: r.iter, Parent: r.cur})
	parent, ctx, emit0 := r.cur, r.ctx, r.emit
	r.cur = id
	var err error
	start := time.Now()
	pprof.Do(ctx, pprof.Labels("span", name), func(inner context.Context) {
		r.ctx = inner
		err = fn()
	})
	end := time.Now()
	r.ctx, r.cur = ctx, parent
	s := &r.spans[id]
	s.Start = start.Sub(r.origin).Seconds()
	s.End = end.Sub(r.origin).Seconds()
	s.Inner = (r.emit - emit0).Seconds()
	return err
}

// spanTimes sums span durations per span name and computes each module's
// self time: its spans' time minus what their child spans cover. The
// wrappers' inner time is moved from the span it ran in to obs.
func spanTimes(spans []span) (calls, self map[string]float64) {
	calls, self = make(map[string]float64), make(map[string]float64)
	childTime := make(map[int]float64)
	childInner := make(map[int]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
			childInner[s.Parent] += s.Inner
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		own := s.Inner - childInner[i]
		calls[s.Name] += d
		self[s.module()] += d - childTime[i] - own
		self["obs"] += own
	}
	return calls, self
}

func (r *recorder) writeSpans(path string) error {
	return writeFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
}

// timedSink wraps the run's JSONLSink: it delegates every event and
// decision record unchanged and charges the time spent to obs.
type timedSink struct {
	sink *obs.JSONLSink
	rec  *recorder
}

func (s *timedSink) Emit(e obs.Event) {
	t := time.Now()
	s.sink.Emit(e)
	s.rec.emit += time.Since(t)
	s.rec.events++
}

func (s *timedSink) EmitDecision(d decision.Record) {
	t := time.Now()
	s.sink.EmitDecision(d)
	s.rec.emit += time.Since(t)
	s.rec.decisions++
}

var _ decision.Sink = (*timedSink)(nil)

// countingWriter counts the bytes a sink writes to its file.
type countingWriter struct {
	w io.Writer
	n *int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// Runtime metrics read around the timed phase.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mHeapLive   = "/gc/heap/live:bytes"
)

type runtimeSample map[string]float64

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mHeapLive}}
	metrics.Read(s)
	out := make(runtimeSample, len(s))
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// named is one per-layer count.
type named struct {
	name  string
	value float64
}

// simCounts are the simulated quantities of a finished run: they repeat
// exactly for a seed, so they also feed the determinism digest.
func simCounts(out *outcome) []named {
	c := out.c
	ms := c.MemoStats()
	served := ms.Hits + ms.Waiters + ms.Coalesced
	var jobs, dropped int
	for _, j := range out.jobs {
		switch {
		case j.res.Valid():
			jobs++
		case errors.Is(j.res.Err, cluster.ErrDeadlineExpired):
			dropped++
		}
	}
	tot := c.TotalStats()
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return []named{
		{"cluster.jobs", float64(jobs)},
		{"cluster.dropped", float64(dropped)},
		{"cluster.memo_hits", float64(served)},
		{"cluster.memo_misses", float64(ms.Misses)},
		{"cluster.memo_hit_ratio", ratio(float64(served), float64(len(out.jobs)))},
		{"cluster.virtual_makespan_s", c.Now()},
		{"cc.map_elements", float64(tot.MapElements)},
		{"cc.shuffle_bytes", float64(tot.ShuffleBytes)},
		{"cc.shuffle_ratio", ratio(float64(tot.ShuffleBytes), float64(tot.RawBytes))},
		{"sim.skipped_wakeups", float64(c.Env().SkippedWakeups())},
	}
}
