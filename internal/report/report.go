// Package report is the offline run-report analyzer: it reads the versioned
// JSONL artifacts a run leaves behind — the structured event log
// (repro.events.v1, with repro.decisions.v1 lines interleaved by -explain)
// and the optional round-aligned time series (repro.series.v1) — and renders
// a deterministic post-mortem: makespan attribution across the machine's
// layers, a per-tenant/per-class SLO attainment table, the top-K
// slowest-queued jobs with their decision-trace blame sentences, per-OST
// heat strips, and a machine-readable JSON summary. The report is a pure
// function of the log bytes: two byte-identical logs render byte-identical
// reports, so nightly CI can diff reports the way it diffs traces.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/asciichart"
	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// Data is the parsed input of one run report.
type Data struct {
	EventsPath string
	SeriesPath string
	Events     []obs.Event
	Decisions  []decision.Record
	Series     []obs.SeriesPoint
}

// Load reads the event log at eventsPath (events + any interleaved decision
// records) and, when seriesPath is non-empty, the series log. The events
// file is read once and parsed twice — the two readers each skip the other
// schema's lines.
func Load(eventsPath, seriesPath string) (*Data, error) {
	raw, err := os.ReadFile(eventsPath)
	if err != nil {
		return nil, err
	}
	d := &Data{EventsPath: eventsPath, SeriesPath: seriesPath}
	if d.Events, err = obs.ReadEvents(bytes.NewReader(raw)); err != nil {
		return nil, fmt.Errorf("report: %s: %w", eventsPath, err)
	}
	if d.Decisions, err = decision.ReadLog(bytes.NewReader(raw)); err != nil {
		return nil, fmt.Errorf("report: %s: %w", eventsPath, err)
	}
	if seriesPath != "" {
		f, err := os.Open(seriesPath)
		if err != nil {
			return nil, err
		}
		d.Series, err = obs.ReadSeries(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", seriesPath, err)
		}
	}
	return d, nil
}

// Phases is the makespan attribution: cumulative rank-seconds spent in each
// layer of the machine, summed over all spans of that layer's categories.
// Spans from concurrent ranks overlap, so the buckets sum to attributed
// rank-time, not wall time.
type Phases struct {
	Queued  float64 `json:"queued"`  // sched "queued" spans: admission wait
	PFS     float64 `json:"pfs"`     // cat "pfs": storage service + queueing
	Fabric  float64 `json:"fabric"`  // cat "mpi": network transfer + waits
	Compute float64 `json:"compute"` // cats "cc"/"adio": map/reduce + I/O glue
}

// total returns the attributed rank-seconds across all buckets.
func (p Phases) total() float64 { return p.Queued + p.PFS + p.Fabric + p.Compute }

// TenantRow is one line of the per-tenant/per-class SLO attainment table.
type TenantRow struct {
	Tenant     string  `json:"tenant"`
	Class      string  `json:"class"`
	Jobs       int     `json:"jobs"`
	Completed  int     `json:"completed"`
	Dropped    int     `json:"dropped"`
	Misses     int     `json:"deadline_misses"`
	Attainment float64 `json:"attainment"` // (jobs - dropped - misses) / jobs
	WaitMean   float64 `json:"wait_mean_s"`
	WaitMax    float64 `json:"wait_max_s"`
}

// SlowJob is one entry of the top-K slowest-queued table: the decision
// trace's wait attribution rendered as a blame sentence.
type SlowJob struct {
	Job   string  `json:"job"`
	Wait  float64 `json:"wait_s"`
	Blame string  `json:"blame"`
}

// Summary is the machine-readable rollup embedded at the end of the text
// report. Field order is fixed by the struct, so the JSON is deterministic.
type Summary struct {
	Schema       string      `json:"schema"`
	Makespan     float64     `json:"makespan_s"`
	Jobs         int         `json:"jobs"`
	Completed    int         `json:"completed"`
	Dropped      int         `json:"dropped"`
	Misses       int         `json:"deadline_misses"`
	Phases       Phases      `json:"phases_rank_seconds"`
	Tenants      []TenantRow `json:"tenants"`
	SlowJobs     []SlowJob   `json:"slow_jobs"`
	SeriesPoints int         `json:"series_points"`
	Alerts       int         `json:"alerts"`
}

// SummarySchema versions the JSON summary's shape.
const SummarySchema = "repro.report.v1"

// Report is one analyzed run, ready to render.
type Report struct {
	Summary Summary
	blames  []decision.JobAttribution // full attribution, Wait-desc
	series  []obs.SeriesPoint
	src     string
	nEvents int
	nDecs   int
}

// job is the per-submission state folded out of the event stream.
type job struct {
	tenant, class string
	wait          float64
	dropped, miss bool
}

// attr returns the value of the first attribute named key ("" if none).
func attr(attrs []obs.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Build folds the loaded logs into a report. topK bounds the slow-job table
// (0 applies the default of 5).
func Build(d *Data, topK int) *Report {
	if topK <= 0 {
		topK = 5
	}
	r := &Report{
		src: d.EventsPath, nEvents: len(d.Events), nDecs: len(d.Decisions),
		series: d.Series,
	}
	var ph Phases
	jobs := map[int]*job{} // tid -> submission
	var tids []int         // first-appearance order
	makespan := 0.0
	alerts := 0
	for _, ev := range d.Events {
		if t := ev.T + ev.Dur; t > makespan {
			makespan = t
		}
		if ev.E == "alert" {
			alerts++
		}
	}
	jobAt := func(tid int) *job {
		j := jobs[tid]
		if j == nil {
			j = &job{}
			jobs[tid] = j
			tids = append(tids, tid)
		}
		return j
	}
	// Walk the spans in the order they finished — the order a streaming
	// reader sees them — so the phase sums are the same floats a one-pass
	// fold of the log would produce.
	spans := obs.Spans(d.Events)
	closed := make([]int32, len(d.Events)) // event index -> 1 + index of the span it closed
	for i, sp := range spans {
		if sp.ClosedAt >= 0 {
			closed[sp.ClosedAt] = int32(i + 1)
		}
	}
	for _, k := range closed {
		if k == 0 {
			continue
		}
		sp := &spans[k-1]
		switch sp.Cat {
		case "sched":
			switch sp.Name {
			case "queued":
				ph.Queued += sp.Dur
				j := jobAt(sp.TID)
				j.tenant = attr(sp.Attrs, "tenant")
				j.class = attr(sp.Attrs, "class")
				j.wait = sp.Dur
			case "deadline-drop":
				jobAt(sp.TID).dropped = true
			}
		case "pfs":
			ph.PFS += sp.Dur
		case "mpi":
			ph.Fabric += sp.Dur
		case "cc", "adio":
			ph.Compute += sp.Dur
		}
	}
	// The scheduler marks a deadline miss on the run span after closing it.
	for _, sp := range spans {
		if sp.Cat == "sched" && sp.Name == "run" && attr(sp.Attrs, "deadline_miss") != "" {
			jobAt(sp.TID).miss = true
		}
	}

	// Per-(tenant, class) rollup, sorted by tenant then class. Submissions
	// with no queued span (none in practice) still count via their drop/run
	// markers, labeled "default".
	rows := map[string]*TenantRow{}
	var keys []string
	s := Summary{Schema: SummarySchema, Makespan: makespan, Phases: ph,
		SeriesPoints: len(d.Series), Alerts: alerts}
	for _, tid := range tids {
		j := jobs[tid]
		tn, cl := j.tenant, j.class
		if tn == "" {
			tn = "default"
		}
		if cl == "" {
			cl = "default"
		}
		key := tn + "\x00" + cl
		row := rows[key]
		if row == nil {
			row = &TenantRow{Tenant: tn, Class: cl}
			rows[key] = row
			keys = append(keys, key)
		}
		row.Jobs++
		s.Jobs++
		if j.dropped {
			row.Dropped++
			s.Dropped++
		} else {
			row.Completed++
			s.Completed++
		}
		if j.miss {
			row.Misses++
			s.Misses++
		}
		if j.wait > row.WaitMax {
			row.WaitMax = j.wait
		}
		row.WaitMean += j.wait // sum for now; divided below
	}
	sort.Strings(keys)
	for _, key := range keys {
		row := rows[key]
		row.WaitMean /= float64(row.Jobs)
		met := row.Jobs - row.Dropped - row.Misses
		if met < 0 {
			met = 0
		}
		row.Attainment = float64(met) / float64(row.Jobs)
		s.Tenants = append(s.Tenants, *row)
	}

	// Slow-job table from the decision trace (empty without -explain).
	r.blames = decision.Attribute(d.Decisions)
	sort.SliceStable(r.blames, func(i, k int) bool {
		if r.blames[i].Wait != r.blames[k].Wait {
			return r.blames[i].Wait > r.blames[k].Wait
		}
		return r.blames[i].Seq < r.blames[k].Seq
	})
	for i, ja := range r.blames {
		if i >= topK {
			break
		}
		s.SlowJobs = append(s.SlowJobs, SlowJob{
			Job: ja.Job, Wait: ja.Wait, Blame: ja.String(),
		})
	}
	r.Summary = s
	return r
}

// pct renders a share of total as a fixed-width percentage.
func pct(part, total float64) string {
	if total <= 0 {
		return "   - "
	}
	return fmt.Sprintf("%4.1f%%", 100*part/total)
}

// WriteText renders the full human-readable report, ending with the JSON
// summary block, so one artifact serves both readers and machines.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	s := r.Summary
	fmt.Fprintf(&b, "== run report: %s ==\n", r.src)
	fmt.Fprintf(&b, "events: %d   decisions: %d   series points: %d   alerts: %d\n",
		r.nEvents, r.nDecs, s.SeriesPoints, s.Alerts)
	fmt.Fprintf(&b, "\n-- makespan attribution --\n")
	fmt.Fprintf(&b, "makespan %.4f s   jobs %d (%d completed, %d dropped, %d deadline misses)\n",
		s.Makespan, s.Jobs, s.Completed, s.Dropped, s.Misses)
	tot := s.Phases.total()
	fmt.Fprintf(&b, "phase            rank-seconds   share\n")
	fmt.Fprintf(&b, "queued (sched)   %12.4f   %s\n", s.Phases.Queued, pct(s.Phases.Queued, tot))
	fmt.Fprintf(&b, "pfs              %12.4f   %s\n", s.Phases.PFS, pct(s.Phases.PFS, tot))
	fmt.Fprintf(&b, "fabric (mpi)     %12.4f   %s\n", s.Phases.Fabric, pct(s.Phases.Fabric, tot))
	fmt.Fprintf(&b, "compute (cc+adio)%12.4f   %s\n", s.Phases.Compute, pct(s.Phases.Compute, tot))

	// The text table shows the busiest rows (most jobs, then worst outcomes)
	// so huge multi-tenant runs stay readable; the JSON summary keeps every
	// row in tenant/class order.
	const tenantRowCap = 20
	shown := make([]TenantRow, len(s.Tenants))
	copy(shown, s.Tenants)
	sort.SliceStable(shown, func(i, k int) bool {
		a, c := shown[i], shown[k]
		if a.Jobs != c.Jobs {
			return a.Jobs > c.Jobs
		}
		if am, cm := a.Dropped+a.Misses, c.Dropped+c.Misses; am != cm {
			return am > cm
		}
		if a.Tenant != c.Tenant {
			return a.Tenant < c.Tenant
		}
		return a.Class < c.Class
	})
	hidden := 0
	if len(shown) > tenantRowCap {
		hidden = len(shown) - tenantRowCap
		shown = shown[:tenantRowCap]
	}
	tw, cw := len("tenant"), len("class")
	for _, row := range shown {
		if len(row.Tenant) > tw {
			tw = len(row.Tenant)
		}
		if len(row.Class) > cw {
			cw = len(row.Class)
		}
	}
	fmt.Fprintf(&b, "\n-- tenants --\n")
	fmt.Fprintf(&b, "%-*s %-*s %5s %5s %5s %5s %8s %10s %10s\n",
		tw, "tenant", cw, "class", "jobs", "done", "drop", "miss", "attain", "wait-mean", "wait-max")
	for _, row := range shown {
		fmt.Fprintf(&b, "%-*s %-*s %5d %5d %5d %5d %7.1f%% %10.4f %10.4f\n",
			tw, row.Tenant, cw, row.Class, row.Jobs, row.Completed, row.Dropped,
			row.Misses, 100*row.Attainment, row.WaitMean, row.WaitMax)
	}
	if hidden > 0 {
		fmt.Fprintf(&b, "(... %d more tenant/class rows in the JSON summary)\n", hidden)
	}
	if len(s.Tenants) == 0 {
		fmt.Fprintf(&b, "(no scheduled jobs in log)\n")
	}

	if len(s.SlowJobs) > 0 {
		fmt.Fprintf(&b, "\n-- top %d slowest-queued jobs (decision trace) --\n", len(s.SlowJobs))
		for i, sj := range s.SlowJobs {
			fmt.Fprintf(&b, "%2d. %s\n", i+1, sj.Blame)
		}
	} else if r.nDecs == 0 {
		fmt.Fprintf(&b, "\n(no decision records in log; record with -explain for wait blame)\n")
	}

	if len(r.series) > 0 {
		depth := make([]float64, len(r.series))
		busy := make([]float64, len(r.series))
		for i, p := range r.series {
			depth[i] = float64(p.QueueDepth)
			busy[i] = float64(p.RanksBusy)
		}
		last := r.series[len(r.series)-1]
		fmt.Fprintf(&b, "\n-- series (%d points, rounds %d..%d) --\n",
			len(r.series), r.series[0].Round, last.Round)
		fmt.Fprintf(&b, "queue depth %s\n", asciichart.Spark(depth, 48))
		fmt.Fprintf(&b, "ranks busy  %s\n", asciichart.Spark(busy, 48))
		if len(last.OSTBusy) > 0 {
			fmt.Fprintf(&b, "ost busy    %s  (final, %d OSTs)\n",
				asciichart.Heat(last.OSTBusy, 48), len(last.OSTBusy))
		}
		for _, cw := range last.Classes {
			fmt.Fprintf(&b, "class %-12s window n=%d p50=%.4fs p99=%.4fs\n",
				cw.Class, cw.N, cw.P50, cw.P99)
		}
	}

	js, err := json.MarshalIndent(&s, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "\n-- summary (json) --\n%s\n", js)
	_, err = io.WriteString(w, b.String())
	return err
}

// Run is the one-call pipeline: load, build, render to w.
func Run(w io.Writer, eventsPath, seriesPath string, topK int) error {
	d, err := Load(eventsPath, seriesPath)
	if err != nil {
		return err
	}
	return Build(d, topK).WriteText(w)
}
