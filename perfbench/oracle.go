package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/workload"
)

// The output oracle is an independent reference for every distinct
// (dataset, window, op) a workload submits. It folds the stored values —
// float64(float32(climate.Temperature3D(c))), the float32 the file holds
// widened back — directly over the window in row-major order, bypassing
// collective I/O, the ncfile codec and the cc operators. Integer-valued
// results (count, hist) and order-free ones (min, max, the value of a
// minloc) must match exactly; sum, mean and variance depend on the
// reduction order and must match within relTol.
const relTol = 1e-9

// query is one distinct analysis: a window of a dataset and an op code
// (workload.OpByCode syntax).
type query struct {
	dataset      string
	start, count [3]int64
	op           string
}

func newQuery(dataset string, start, count []int64, op string) (query, error) {
	q := query{dataset: dataset, op: op}
	if len(start) != 3 || len(count) != 3 {
		return q, fmt.Errorf("query %s/%s: want a 3-D window, got start %v count %v", dataset, op, start, count)
	}
	copy(q.start[:], start)
	copy(q.count[:], count)
	return q, nil
}

func (q query) elems() int64 { return q.count[0] * q.count[1] * q.count[2] }

func (q query) contains(c []int64) bool {
	if len(c) != 3 {
		return false
	}
	for d := range c {
		if c[d] < q.start[d] || c[d] >= q.start[d]+q.count[d] {
			return false
		}
	}
	return true
}

// storedValue is the value the float32 dataset holds at c.
func storedValue(c []int64) float64 { return float64(float32(climate.Temperature3D(c))) }

// each visits every element of the window in row-major order.
func (q query) each(fn func(v float64)) {
	c := make([]int64, 3)
	for c[0] = q.start[0]; c[0] < q.start[0]+q.count[0]; c[0]++ {
		for c[1] = q.start[1]; c[1] < q.start[1]+q.count[1]; c[1]++ {
			for c[2] = q.start[2]; c[2] < q.start[2]+q.count[2]; c[2]++ {
				fn(storedValue(c))
			}
		}
	}
}

// reference is the oracle's answer for one query.
type reference struct {
	n        int64
	sum      float64
	min, max float64
	variance float64 // population variance, two-pass; variance queries only
	hist     []int64 // histogram queries only
}

func computeReference(q query) (*reference, error) {
	op, err := workload.OpByCode(q.op)
	if err != nil {
		return nil, err
	}
	h, isHist := op.(cc.Histogram)
	r := &reference{min: math.Inf(1), max: math.Inf(-1)}
	var width float64
	if isHist {
		r.hist = make([]int64, h.Bins)
		width = (h.Hi - h.Lo) / float64(h.Bins)
	}
	q.each(func(v float64) {
		r.n++
		r.sum += v
		r.min = math.Min(r.min, v)
		r.max = math.Max(r.max, v)
		if isHist {
			b := int((v - h.Lo) / width)
			r.hist[min(max(b, 0), h.Bins-1)]++
		}
	})
	if q.op == "variance" && r.n > 0 {
		mean := r.sum / float64(r.n)
		var m2 float64
		q.each(func(v float64) { m2 += (v - mean) * (v - mean) })
		r.variance = m2 / float64(r.n)
	}
	return r, nil
}

// oracle maps every query of a seed's inputs to its reference.
type oracle map[query]*reference

func buildOracle(qs []query) (oracle, error) {
	o := make(oracle)
	for _, q := range qs {
		if _, ok := o[q]; ok {
			continue
		}
		r, err := computeReference(q)
		if err != nil {
			return nil, err
		}
		o[q] = r
	}
	return o, nil
}

func close9(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(got), math.Abs(want))
}

// check compares one job's result state with the reference.
func (r *reference) check(q query, res cc.Result) error {
	bad := func(got, want any) error {
		return fmt.Errorf("%s over %v+%v: got %v, want %v", q.op, q.start, q.count, got, want)
	}
	switch q.op {
	case "sum":
		if v, ok := res.State.(float64); !ok || !close9(v, r.sum) {
			return bad(res.State, r.sum)
		}
	case "count":
		if v, ok := res.State.(int64); !ok || v != r.n {
			return bad(res.State, r.n)
		}
	case "min", "max":
		want := r.min
		if q.op == "max" {
			want = r.max
		}
		if v, ok := res.State.(float64); !ok || v != want {
			return bad(res.State, want)
		}
	case "mean":
		if v, ok := res.State.(cc.MeanState); !ok || v.N != r.n || !close9(v.Sum, r.sum) {
			return bad(res.State, cc.MeanState{Sum: r.sum, N: r.n})
		}
	case "variance":
		v, ok := res.State.(cc.VarianceState)
		if !ok || v.N != r.n || !close9(v.Mean, r.sum/float64(r.n)) || !close9(v.M2/float64(v.N), r.variance) {
			return bad(res.State, fmt.Sprintf("n=%d mean=%v var=%v", r.n, r.sum/float64(r.n), r.variance))
		}
	case "minloc", "maxloc":
		want := r.min
		if q.op == "maxloc" {
			want = r.max
		}
		// Ties make the location ambiguous, so the check is that the value
		// is the extremum and that the window holds it at the coordinates.
		v, ok := res.State.(cc.Loc)
		if !ok || !v.Valid || v.Val != want || !q.contains(v.Coords) || storedValue(v.Coords) != v.Val {
			return bad(res.State, want)
		}
	default:
		if r.hist == nil {
			return fmt.Errorf("oracle: no reference for op %q", q.op)
		}
		if v, ok := res.State.([]int64); !ok || !slices.Equal(v, r.hist) {
			return bad(res.State, r.hist)
		}
	}
	return nil
}

// submitted pairs a job's query with its scheduler result.
type submitted struct {
	q   query
	res *cluster.CCResult
}

// outcome is what one timed phase leaves behind for the checks.
type outcome struct {
	c       *cluster.Cluster
	ranks   int
	results []*cluster.JobResult // as Cluster.Run returned them
	jobs    []submitted          // in submission order
	subs    []workload.Submitted // replayed trace jobs, until resolve
	files   []string             // telemetry and report files the phase wrote
	dir     string               // the directory holding files
}

// resolve turns replayed trace submissions into jobs. It runs after the
// timed phase, so the conversion is not timed.
func (out *outcome) resolve() error {
	for _, s := range out.subs {
		q, err := newQuery(s.Sub.Dataset, s.Sub.Start, s.Sub.Count, s.Sub.Op)
		if err != nil {
			return err
		}
		out.jobs = append(out.jobs, submitted{q, s.Res})
	}
	out.subs = nil
	return nil
}

// verdict is the result of checking one outcome.
type verdict struct {
	attempted, failed int
	completed         int   // jobs with a result, memo-served included
	dropped           int   // modelled deadline drops (not failures)
	bytes             int64 // logical bytes of the completed jobs' windows
	digest            string
	fileHashes        []string // sha256 prefix of each of outcome.files
	errs              []error
}

func (v *verdict) fail(err error) {
	v.failed++
	if len(v.errs) < 5 {
		v.errs = append(v.errs, err)
	}
}

// verify checks every job against the oracle, audits the placement, and
// folds virtual start/end times, result bits and the run's simulated counts
// into a determinism digest. Telemetry files are hashed into the digest
// too, so a traced run that wrote different logs than an untraced one
// fails the digest comparison.
func verify(out *outcome, o oracle) verdict {
	var v verdict
	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	for _, j := range out.jobs {
		v.attempted++
		jr := j.res.JobResult
		word(math.Float64bits(jr.Start))
		word(math.Float64bits(jr.End))
		switch {
		case j.res.Valid():
			v.completed++
			v.bytes += j.q.elems() * 4
			word(math.Float64bits(j.res.Res.Value))
			ref, ok := o[j.q]
			if !ok {
				v.fail(fmt.Errorf("job %s: query not in the oracle", jr.Job.Name))
			} else if err := ref.check(j.q, j.res.Res); err != nil {
				v.fail(fmt.Errorf("job %s: %w", jr.Job.Name, err))
			}
		case errors.Is(jr.Err, cluster.ErrDeadlineExpired):
			v.dropped++
			word(1)
		default:
			v.fail(fmt.Errorf("job %s: %v", jr.Job.Name, jr.Err))
		}
	}
	v.attempted++
	if err := cluster.AuditResults(out.results, out.ranks); err != nil {
		v.fail(err)
	}
	for _, x := range simCounts(out) {
		word(math.Float64bits(x.value))
	}
	for _, f := range out.files {
		v.attempted++
		data, err := os.ReadFile(f)
		if err != nil {
			v.fail(err)
			continue
		}
		// The report names its input file; hash it without the directory,
		// which differs between processes.
		sum := sha256.Sum256(bytes.ReplaceAll(data, []byte(out.dir), nil))
		h.Write(sum[:])
		v.fileHashes = append(v.fileHashes, hex.EncodeToString(sum[:8]))
	}
	v.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return v
}
