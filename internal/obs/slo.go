package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the SLO rule engine of the telemetry plane: declarative
// thresholds over registry series, evaluated by the owning runtime at its
// telemetry publish points (scheduler round boundaries plus once at the end
// of the run — deterministic virtual-clock instants, so alert events land
// at the same byte offsets on every identical run). A rule that stops
// holding fires exactly once: it emits an "alert" event into the event log
// (and an instant span, cat "slo") and is recorded as a violation, which
// strict-mode CLIs turn into a nonzero exit.

// SLORule is one declarative threshold. The zero value is invalid; build
// rules with ParseSLORule (or the DefaultSLORules set).
type SLORule struct {
	// Name labels the rule in alerts and status lines.
	Name string
	// Expr is the source text the rule was parsed from.
	Expr string

	kind    ruleKind
	metric  string // series name (ratio numerator for ruleRatio)
	metric2 string // ratio denominator
	q       float64
	op      string // "<", "<=", ">", ">="
	bound   float64
}

type ruleKind int

const (
	ruleValue    ruleKind = iota // counter or gauge by name
	ruleQuantile                 // pNN(histogram)
	ruleRatio                    // ratio(a, b) of counters/gauges
	ruleSpread                   // spread(histogram) = p99/p50
)

// ParseSLORule parses one rule from its declarative text form:
//
//	[name=]expr OP threshold
//
// where OP is <, <=, > or >= and expr is one of
//
//	metric              — a counter or gauge by name
//	pNN(metric)         — quantile NN/100 of a histogram (p50, p99, p999, ...)
//	ratio(a, b)         — a/b of two counters/gauges (skipped while b == 0)
//	spread(metric)      — p99/p50 of a histogram, the straggler-window
//	                      detector: a latency distribution whose tail runs
//	                      far from its median has a slow subset of servers
//
// Examples:
//
//	queue-p99=p99(cluster_queue_wait_seconds)<0.5
//	drop-rate=ratio(cluster_jobs_dropped,cluster_jobs_submitted)<=0.01
//	read-straggle=spread(pfs_read_seconds)<100
//
// The rule holds while "expr OP threshold" is true; it fires (once) when the
// comparison first fails. A rule whose series does not exist yet — or whose
// quantile is the NaN empty-histogram sentinel — is skipped, not fired.
func ParseSLORule(s string) (SLORule, error) {
	r := SLORule{Expr: s}
	text := strings.TrimSpace(s)
	// Optional "name=" prefix: an '=' before any comparison operator.
	if i := strings.IndexAny(text, "=<>"); i >= 0 && text[i] == '=' {
		r.Name = strings.TrimSpace(text[:i])
		text = strings.TrimSpace(text[i+1:])
	}
	opAt := strings.IndexAny(text, "<>")
	if opAt < 0 {
		return r, fmt.Errorf("obs: SLO rule %q: no comparison operator", s)
	}
	expr := strings.TrimSpace(text[:opAt])
	r.op = text[opAt : opAt+1]
	rest := text[opAt+1:]
	if strings.HasPrefix(rest, "=") {
		r.op += "="
		rest = rest[1:]
	}
	bound, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return r, fmt.Errorf("obs: SLO rule %q: bad threshold: %v", s, err)
	}
	r.bound = bound

	switch {
	case strings.HasPrefix(expr, "p") && strings.HasSuffix(expr, ")") && strings.Contains(expr, "("):
		open := strings.Index(expr, "(")
		pct, err := strconv.ParseFloat(expr[1:open], 64)
		if err != nil || pct < 0 {
			return r, fmt.Errorf("obs: SLO rule %q: bad quantile %q", s, expr[:open])
		}
		// p50 -> 0.50, p99 -> 0.99; extra digits read per-mille style, so
		// p999 -> 0.999. One division total, so p999 is exactly 0.999.
		div := 100.0
		for pct > div {
			div *= 10
		}
		q := pct / div
		r.kind, r.q, r.metric = ruleQuantile, q, strings.TrimSuffix(expr[open+1:], ")")
	case strings.HasPrefix(expr, "ratio(") && strings.HasSuffix(expr, ")"):
		inner := strings.TrimSuffix(strings.TrimPrefix(expr, "ratio("), ")")
		parts := strings.Split(inner, ",")
		if len(parts) != 2 {
			return r, fmt.Errorf("obs: SLO rule %q: ratio needs two series", s)
		}
		r.kind = ruleRatio
		r.metric = strings.TrimSpace(parts[0])
		r.metric2 = strings.TrimSpace(parts[1])
	case strings.HasPrefix(expr, "spread(") && strings.HasSuffix(expr, ")"):
		r.kind = ruleSpread
		r.metric = strings.TrimSuffix(strings.TrimPrefix(expr, "spread("), ")")
	default:
		if expr == "" || strings.ContainsAny(expr, "() ") {
			return r, fmt.Errorf("obs: SLO rule %q: bad series expression %q", s, expr)
		}
		r.kind, r.metric = ruleValue, expr
	}
	if r.metric == "" || (r.kind == ruleRatio && r.metric2 == "") {
		return r, fmt.Errorf("obs: SLO rule %q: empty series name", s)
	}
	if r.Name == "" {
		r.Name = expr
	}
	return r, nil
}

// MustParseSLORule is ParseSLORule for statically known rule text.
func MustParseSLORule(s string) SLORule {
	r, err := ParseSLORule(s)
	if err != nil {
		panic(err)
	}
	return r
}

// DefaultSLORules is the stock rule set used when strict mode is requested
// without explicit rules: generous bounds that a healthy run never crosses.
//
//   - queue-wait-p99: scheduler admission latency tail (virtual seconds).
//   - deadline-drop-rate: fraction of submissions dropped for expiring in
//     the queue.
//   - read-straggle: p99/p50 of pfs read latency — a straggling OST subset
//     stretches the tail while the median stays put.
func DefaultSLORules() []SLORule {
	return []SLORule{
		MustParseSLORule("queue-wait-p99=p99(cluster_queue_wait_seconds)<60"),
		MustParseSLORule("deadline-drop-rate=ratio(cluster_jobs_dropped,cluster_jobs_submitted)<=0.01"),
		MustParseSLORule("read-straggle=spread(pfs_read_seconds)<100"),
	}
}

// value evaluates the rule's expression against reg. ok is false while the
// series (or enough of it) does not exist yet.
func (r *SLORule) value(reg *Registry) (v float64, ok bool) {
	switch r.kind {
	case ruleValue:
		if v, ok := reg.CounterValue(r.metric); ok {
			return v, true
		}
		return reg.GaugeValue(r.metric)
	case ruleQuantile:
		q := reg.FindHistogram(r.metric).Quantile(r.q)
		return q, !math.IsNaN(q)
	case ruleRatio:
		den, ok := reg.CounterValue(r.metric2)
		if !ok {
			den, ok = reg.GaugeValue(r.metric2)
		}
		if !ok || den == 0 {
			return 0, false
		}
		num, ok := reg.CounterValue(r.metric)
		if !ok {
			num, ok = reg.GaugeValue(r.metric)
		}
		if !ok {
			num = 0 // numerator series never created = zero events
		}
		return num / den, true
	case ruleSpread:
		h := reg.FindHistogram(r.metric)
		p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
		if math.IsNaN(p50) || math.IsNaN(p99) || p50 == 0 {
			return 0, false
		}
		return p99 / p50, true
	}
	return 0, false
}

// holds reports whether "v OP bound" is true.
func (r *SLORule) holds(v float64) bool {
	switch r.op {
	case "<":
		return v < r.bound
	case "<=":
		return v <= r.bound
	case ">":
		return v > r.bound
	default:
		return v >= r.bound
	}
}

// SLOViolation records one fired rule.
type SLOViolation struct {
	Rule  SLORule
	Value float64 // the observed value that broke the threshold
	At    float64 // virtual time of the evaluation that fired
}

func (v SLOViolation) String() string {
	return fmt.Sprintf("SLO %s violated: %s is %s (observed at t=%ss)",
		v.Rule.Name, v.Rule.Expr, fnum(v.Value), fnum(v.At))
}

// SLOStatus is one rule's state in a published telemetry frame.
type SLOStatus struct {
	Name  string  `json:"name"`
	Expr  string  `json:"expr"`
	OK    bool    `json:"ok"`       // false once fired
	Valid bool    `json:"valid"`    // series existed at last evaluation
	Value float64 `json:"value"`    // last evaluated value (0 if !Valid)
	Bound float64 `json:"bound"`    // threshold
	At    float64 `json:"fired_at"` // virtual fire time (0 while OK)
}

// SLO is the rule engine: a rule set plus the fired-state latch. Create with
// NewSLO, install via Tracer.SetSLO; the owning runtime calls Eval at its
// telemetry publish points.
type SLO struct {
	rules      []SLORule
	fired      map[string]bool
	last       map[string]SLOStatus
	violations []SLOViolation
}

// NewSLO builds an engine over rules (DefaultSLORules when empty).
func NewSLO(rules ...SLORule) *SLO {
	if len(rules) == 0 {
		rules = DefaultSLORules()
	}
	return &SLO{rules: rules, fired: make(map[string]bool), last: make(map[string]SLOStatus)}
}

// Rules returns the rule set.
func (s *SLO) Rules() []SLORule {
	if s == nil {
		return nil
	}
	return s.rules
}

// Eval evaluates every rule against t's registry at virtual time now. A rule
// that stops holding fires exactly once: an "alert" event is emitted
// through t (Spans renders it as an instant) and the violation is retained. Safe to call
// from the simulation only — the engine is not locked.
func (s *SLO) Eval(t *Tracer, now float64) {
	if s == nil {
		return
	}
	reg := t.Metrics()
	for i := range s.rules {
		r := &s.rules[i]
		v, ok := r.value(reg)
		st := SLOStatus{Name: r.Name, Expr: r.Expr, OK: !s.fired[r.Name],
			Valid: ok, Value: v, Bound: r.bound}
		if prev, seen := s.last[r.Name]; seen && !prev.OK {
			st = prev // latched: keep the firing picture, not the latest value
		} else if ok && !r.holds(v) && !s.fired[r.Name] {
			s.fired[r.Name] = true
			s.violations = append(s.violations, SLOViolation{Rule: *r, Value: v, At: now})
			st.OK, st.At = false, now
			t.Alert(r.Name, now,
				S("expr", r.Expr), F("value", v), F("threshold", r.bound))
		}
		s.last[r.Name] = st
	}
}

// Status returns every rule's latest evaluation state, in rule order.
func (s *SLO) Status() []SLOStatus {
	if s == nil {
		return nil
	}
	out := make([]SLOStatus, 0, len(s.rules))
	for i := range s.rules {
		if st, ok := s.last[s.rules[i].Name]; ok {
			out = append(out, st)
		} else {
			out = append(out, SLOStatus{Name: s.rules[i].Name, Expr: s.rules[i].Expr, OK: true})
		}
	}
	return out
}

// Violations returns the rules that fired, in firing order.
func (s *SLO) Violations() []SLOViolation {
	if s == nil {
		return nil
	}
	return s.violations
}
