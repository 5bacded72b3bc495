package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// instance is one workload made from one seed. Each measured iteration
// calls setup (timed as setup_s) and then timed (timed as wall_s); the
// recorder is nil in untraced iterations.
type instance interface {
	// queries lists what the workload submits, for the oracle.
	queries() []query
	setup(rec *recorder) error
	timed(rec *recorder) (*outcome, error)
}

// newInstance makes the named workload's inputs from seed. dir is a
// scratch directory for the files a workload writes.
func newInstance(name string, seed uint64, dir string) (instance, error) {
	switch name {
	case "scan":
		return newScan(seed, scanSteps), nil
	case "stream":
		return newStream(seed, streamJobs)
	case "observed":
		return newObserved(seed, observedJobs, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want scan, stream or observed)", name)
}

// scan is the paper's regime: 8 collective-computing jobs of 16 ranks on
// disjoint time windows of one T×256×256 float32 variable on a 64-rank
// machine, memo off, fifo. Every byte is synthesized, decoded and absorbed
// exactly once.
type scan struct {
	dims  []int64
	win   int64
	kinds []int // scanKinds index per window
	order []int // submission order of the windows
	c     *cluster.Cluster
}

const (
	scanSteps    = 2048
	scanJobs     = 8
	scanJobRanks = 16
)

// scanKinds cycles over the windows before the seed permutes them.
var scanKinds = []struct {
	op     string
	reduce cc.ReduceMode
}{
	{"sum", cc.AllToOne},
	{"hist:-40:60:16", cc.AllToAll},
	{"minloc", cc.AllToOne},
}

func newScan(seed uint64, steps int64) *scan {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := &scan{
		dims:  []int64{steps, 256, 256},
		win:   steps / scanJobs,
		kinds: make([]int, scanJobs),
		order: rng.Perm(scanJobs),
	}
	for w, k := range rng.Perm(scanJobs) {
		s.kinds[w] = k % len(scanKinds)
	}
	return s
}

func (s *scan) query(w int) query {
	return query{
		dataset: "climate",
		start:   [3]int64{int64(w) * s.win, 0, 0},
		count:   [3]int64{s.win, s.dims[1], s.dims[2]},
		op:      scanKinds[s.kinds[w]].op,
	}
}

func (s *scan) queries() []query {
	qs := make([]query, scanJobs)
	for w := range qs {
		qs[w] = s.query(w)
	}
	return qs
}

func (s *scan) setup(rec *recorder) error {
	return rec.do("cluster.provision", func() error {
		s.c = cluster.New(cluster.Spec{Ranks: 64, RanksPerNode: 8, Policy: "fifo"})
		ds, _, err := climate.NewDataset3D(s.c.FS(), s.dims, 40, 4<<20)
		if err != nil {
			return err
		}
		s.c.RegisterDataset("climate", ds)
		return nil
	})
}

func (s *scan) timed(rec *recorder) (*outcome, error) {
	out := &outcome{c: s.c, ranks: 64}
	err := rec.do("cluster.submit", func() error {
		for _, w := range s.order {
			q := s.query(w)
			op, err := workload.OpByCode(q.op)
			if err != nil {
				return err
			}
			res := s.c.SubmitCC(cluster.CCJob{
				Name:    fmt.Sprintf("w%d-%s", w, q.op),
				Ranks:   scanJobRanks,
				Dataset: q.dataset,
				Slab: layout.Slab{
					Start: append([]int64(nil), q.start[:]...),
					Count: append([]int64(nil), q.count[:]...),
				},
				Op:         op,
				Reduce:     scanKinds[s.kinds[w]].reduce,
				SecPerElem: 2e-8,
			})
			out.jobs = append(out.jobs, submitted{q, res})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.do("cluster.run", func() (err error) {
		out.results, err = s.c.Run()
		return err
	})
	return out, err
}

// generatedSpec is the input stream and observed share: the default
// multi-tenant spec, sized by job count.
func generatedSpec(seed uint64, jobs int) workload.Spec {
	// Aggregate arrivals run at ~20 jobs per virtual second; the horizon
	// leaves room so the stream is cut by the job cap, not the horizon.
	horizon := float64(jobs) / 20 * 1.3
	return workload.DefaultSpec(seed, 1, horizon, jobs, "priority")
}

func traceQueries(tr *workload.Trace) ([]query, error) {
	qs := make([]query, len(tr.Jobs))
	for i, j := range tr.Jobs {
		q, err := newQuery(j.Dataset, j.Start, j.Count, j.Op)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// stream is the multi-tenant regime: the default generator at ~50k jobs on
// a 32-rank machine with the memo on and the priority policy, so almost
// every job is served from the memo and the control plane and the
// allocator do the work.
type stream struct {
	spec workload.Spec
	qs   []query
	tr   *workload.Trace
	c    *cluster.Cluster
}

const streamJobs = 50000

func newStream(seed uint64, jobs int) (*stream, error) {
	s := &stream{spec: generatedSpec(seed, jobs)}
	tr, err := workload.Generate(s.spec)
	if err != nil {
		return nil, err
	}
	s.qs, err = traceQueries(tr)
	return s, err
}

func (s *stream) queries() []query { return s.qs }

func (s *stream) setup(rec *recorder) error {
	err := rec.do("workload.generate", func() (err error) {
		s.tr, err = workload.Generate(s.spec)
		return err
	})
	if err != nil {
		return err
	}
	return rec.do("cluster.provision", func() (err error) {
		s.c, err = workload.Provision(s.tr, nil)
		return err
	})
}

func (s *stream) timed(rec *recorder) (*outcome, error) {
	out := &outcome{c: s.c, ranks: s.tr.Machine.Ranks}
	err := rec.do("cluster.submit", func() (err error) {
		out.subs, err = workload.SubmitAll(s.c, s.tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rec.do("cluster.run", func() (err error) {
		out.results, err = s.c.Run()
		return err
	})
	return out, err
}

// observed records a ~10k-job stream in setup, then replays it the way an
// operator would: read the recording, run it with the full telemetry plane
// (streaming event log with decisions, series log) and build the offline
// run report from the logs.
type observed struct {
	spec workload.Spec
	qs   []query
	dir  string
}

const observedJobs = 10000

func newObserved(seed uint64, jobs int, dir string) (*observed, error) {
	o := &observed{spec: generatedSpec(seed, jobs), dir: dir}
	tr, err := workload.Generate(o.spec)
	if err != nil {
		return nil, err
	}
	o.qs, err = traceQueries(tr)
	return o, err
}

func (o *observed) queries() []query { return o.qs }

func (o *observed) path(name string) string { return filepath.Join(o.dir, name) }

func (o *observed) setup(rec *recorder) error {
	var tr *workload.Trace
	err := rec.do("workload.generate", func() (err error) {
		tr, err = workload.Generate(o.spec)
		return err
	})
	if err != nil {
		return err
	}
	return rec.do("workload.write", func() error {
		return writeFile(o.path("trace.jsonl"), func(w io.Writer) error { return workload.Write(w, tr) })
	})
}

// telemetry is the run's obs plane: event log with decisions and series
// log, each streamed to a file. In traced runs the sinks are wrapped to
// time and count what they write, without changing a byte of it.
type telemetry struct {
	ot             *obs.Tracer
	sink           *obs.JSONLSink
	series         *obs.SeriesSink
	evFile, seFile *os.File
}

func (o *observed) openTelemetry(rec *recorder) (*telemetry, error) {
	t := &telemetry{ot: obs.New()}
	var err error
	if t.evFile, err = os.Create(o.path("events.jsonl")); err != nil {
		return nil, err
	}
	if t.seFile, err = os.Create(o.path("series.jsonl")); err != nil {
		t.evFile.Close()
		return nil, err
	}
	if rec == nil {
		t.sink = obs.NewJSONLSink(t.evFile)
		t.series = obs.NewSeriesSink(t.seFile)
		t.ot.SetSink(t.sink)
	} else {
		t.sink = obs.NewJSONLSink(countingWriter{t.evFile, &rec.logBytes})
		t.series = obs.NewSeriesSink(countingWriter{t.seFile, &rec.serBytes})
		t.ot.SetSink(&timedSink{t.sink, rec})
	}
	t.ot.SetSeries(t.series)
	t.ot.EnableDecisions()
	t.ot.SetStreaming(true)
	return t, nil
}

func (t *telemetry) close() error {
	return errors.Join(t.sink.Close(), t.evFile.Close(), t.series.Close(), t.seFile.Close())
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (o *observed) timed(rec *recorder) (*outcome, error) {
	var tr *workload.Trace
	err := rec.do("workload.read", func() error {
		f, err := os.Open(o.path("trace.jsonl"))
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = workload.Read(bufio.NewReader(f))
		return err
	})
	if err != nil {
		return nil, err
	}
	tel, err := o.openTelemetry(rec)
	if err != nil {
		return nil, err
	}
	out := &outcome{ranks: tr.Machine.Ranks}
	events, series, text := o.path("events.jsonl"), o.path("series.jsonl"), o.path("report.txt")
	var d *report.Data
	var r *report.Report
	steps := []struct {
		span string
		fn   func() error
	}{
		{"cluster.provision", func() (err error) { out.c, err = workload.Provision(tr, tel.ot); return err }},
		{"cluster.submit", func() (err error) { out.subs, err = workload.SubmitAll(out.c, tr); return err }},
		{"cluster.run", func() (err error) { out.results, err = out.c.Run(); return err }},
		{"obs.close", tel.close},
		{"report.load", func() (err error) { d, err = report.Load(events, series); return err }},
		{"report.build", func() error { r = report.Build(d, 10); return nil }},
		{"report.write", func() error { return writeFile(text, r.WriteText) }},
	}
	for _, st := range steps {
		if err := rec.do(st.span, st.fn); err != nil {
			tel.close() // error path: closing again only reports the files closed already
			return nil, err
		}
	}
	out.files, out.dir = []string{events, series, text}, o.dir
	return out, nil
}
