package obs

import (
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/obs/decision"
)

// This file is the live side of the telemetry plane. The simulation runs
// orders of magnitude faster than wall time, but long paper-scale runs still
// take wall minutes — Live is the bridge: the cluster publishes a consistent
// Frame (registry snapshot + job table + resource view) at every scheduler
// round boundary, and concurrent consumers (the HTTP exporter below, the
// terminal dashboard in dash.go) read only published frames under a mutex.
// Scrapes are therefore always round-consistent: a /metrics response never
// mixes two rounds' values, because it renders one immutable snapshot.

// JobState is one job's scheduler state in a published frame and in the
// /jobs endpoint.
type JobState struct {
	Name   string  `json:"name"`
	State  string  `json:"state"` // queued | running | done | dropped | error | memo-hit | coalesced
	Ranks  int     `json:"ranks"`
	Submit float64 `json:"submit_vs"`
	Start  float64 `json:"start_vs"` // -1 while queued
	End    float64 `json:"end_vs"`   // -1 until finished
}

// Frame is one published telemetry snapshot. Everything in it is immutable
// after Publish: the registry is a deep Snapshot and the slices are owned by
// the frame.
type Frame struct {
	Seq        int     // publish sequence number (1-based)
	Now        float64 // virtual time of the round boundary
	QueueDepth int     // jobs waiting for admission
	RanksBusy  int
	RanksTotal int
	Jobs       []JobState
	// OSTReadLat is the mean observed read latency per OST (seconds; 0 for
	// OSTs that served no reads) — the dashboard heatmap's input.
	OSTReadLat []float64
	// Reg is the deep registry snapshot backing /metrics and the quantile
	// tiles.
	Reg *Registry
	// SLO is the rule engine's status at this round (nil when no engine).
	SLO []SLOStatus
	// Decisions is the scheduler decision stream recorded so far, an
	// immutable prefix of the tracer's Recorder (nil unless decision tracing
	// is on and a recorder is attached) — the /decisions endpoint's payload.
	Decisions []decision.Record
}

// samplePoint is one (queue depth, ranks busy) history sample for the
// dashboard sparklines.
type samplePoint struct {
	now        float64
	queueDepth int
	ranksBusy  int
}

// Live is the mutex-guarded cell a running cluster publishes frames into.
// One writer (the simulation) and any number of readers (HTTP handlers,
// dashboard goroutine).
type Live struct {
	mu      sync.Mutex
	frame   *Frame
	history []samplePoint // bounded ring of recent rounds
}

// historyCap bounds the dashboard sparkline history.
const historyCap = 512

// NewLive returns an empty cell.
func NewLive() *Live { return &Live{} }

// Publish installs f as the latest frame, stamping its sequence number.
// The caller must not mutate f (or anything it references) afterwards.
func (l *Live) Publish(f *Frame) {
	if l == nil || f == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frame != nil {
		f.Seq = l.frame.Seq + 1
	} else {
		f.Seq = 1
	}
	l.frame = f
	l.history = append(l.history, samplePoint{now: f.Now, queueDepth: f.QueueDepth, ranksBusy: f.RanksBusy})
	if len(l.history) > historyCap {
		l.history = l.history[len(l.history)-historyCap:]
	}
}

// Latest returns the most recently published frame (nil before the first
// publish). The frame is immutable; callers may hold it freely.
func (l *Live) Latest() *Frame {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frame
}

// History returns the recent (queue depth, ranks busy) series, oldest first.
func (l *Live) History() (queueDepth, ranksBusy []float64) {
	if l == nil {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	queueDepth = make([]float64, len(l.history))
	ranksBusy = make([]float64, len(l.history))
	for i, p := range l.history {
		queueDepth[i] = float64(p.queueDepth)
		ranksBusy[i] = float64(p.ranksBusy)
	}
	return queueDepth, ranksBusy
}

// TelemetryHandler serves the live telemetry endpoints over l:
//
//	/metrics   — the latest frame's registry in Prometheus text format
//	/healthz   — liveness JSON: {"ok":true,"frames":N,"virtual_now":...}
//	/jobs      — the latest frame's job table as JSON
//	/decisions — the scheduler decision stream (repro.decisions.v1 records)
//	             recorded up to the latest frame; empty unless decision
//	             tracing is enabled (-explain, or any -serve run)
//
// Before the first publish, /metrics serves an empty (but valid) exposition
// and /healthz reports zero frames, so scrapers can poll from the moment the
// listener is up.
func TelemetryHandler(l *Live) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f := l.Latest()
		if f == nil {
			return // empty exposition: no families yet
		}
		f.Reg.WriteOpenMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		f := l.Latest()
		resp := struct {
			OK     bool    `json:"ok"`
			Frames int     `json:"frames"`
			Now    float64 `json:"virtual_now"`
		}{OK: true}
		if f != nil {
			resp.Frames = f.Seq
			resp.Now = f.Now
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, req *http.Request) {
		f := l.Latest()
		jobs := []JobState{}
		if f != nil {
			jobs = f.Jobs
		}
		writeJSON(w, jobs)
	})
	mux.HandleFunc("/decisions", func(w http.ResponseWriter, req *http.Request) {
		f := l.Latest()
		resp := struct {
			Schema    string            `json:"schema"`
			Decisions []decision.Record `json:"decisions"`
		}{Schema: decision.Schema, Decisions: []decision.Record{}}
		if f != nil && f.Decisions != nil {
			resp.Decisions = f.Decisions
		}
		writeJSON(w, resp)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
