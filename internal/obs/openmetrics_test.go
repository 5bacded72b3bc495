package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// lintPromText is a strict validator for the Prometheus text exposition
// format as WriteOpenMetrics produces it: every sample preceded by exactly
// one TYPE line for its family, no duplicate families, histogram buckets
// cumulative per label set and finished by +Inf (with `le` rendered last),
// _count consistent with its label set's last bucket, all values parseable
// floats. CI additionally lints a live scrape with the real OpenMetrics
// parser (github.com/prometheus/common/expfmt); this local linter keeps the
// same guarantees testable without network access.
func lintPromText(b []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(b))
	families := map[string]string{} // name -> type
	var curFam, curType string
	var curSeries string // current bucket label set within the histogram family
	var lastCum float64
	var sawInf bool
	histCounts := map[string][2]float64{} // family{labels} -> {lastBucketCum, count}
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			return fmt.Errorf("line %d: blank line", ln)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE line %q", ln, line)
			}
			name, typ := parts[2], parts[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				return fmt.Errorf("line %d: unknown type %q", ln, typ)
			}
			if _, dup := families[name]; dup {
				return fmt.Errorf("line %d: duplicate family %q", ln, name)
			}
			families[name] = typ
			curFam, curType = name, typ
			curSeries, lastCum, sawInf = "\x00unset", 0, false
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unexpected comment %q", ln, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value in %q", ln, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", ln, valStr, err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				return fmt.Errorf("line %d: unterminated label set %q", ln, series)
			}
			labels = series[i+1 : len(series)-1]
		}
		switch curType {
		case "counter", "gauge":
			if name != curFam {
				return fmt.Errorf("line %d: sample %q outside its TYPE block (%q)", ln, name, curFam)
			}
		case "histogram":
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if base != curFam {
				return fmt.Errorf("line %d: sample %q outside its TYPE block (%q)", ln, name, curFam)
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				// `le` must be the last pair so every bucket series of one
				// label set shares a common prefix.
				idx := strings.LastIndex(labels, `le="`)
				if idx < 0 || (idx > 0 && labels[idx-1] != ',') {
					return fmt.Errorf("line %d: bucket without trailing le label: %q", ln, series)
				}
				key := ""
				if idx > 0 {
					key = labels[:idx-1]
				}
				if key != curSeries {
					if curSeries != "\x00unset" && !sawInf {
						return fmt.Errorf("line %d: histogram series %q{%s} ended without +Inf bucket",
							ln, curFam, curSeries)
					}
					curSeries, lastCum, sawInf = key, 0, false
				}
				if val < lastCum {
					return fmt.Errorf("line %d: bucket not cumulative (%g after %g)", ln, val, lastCum)
				}
				lastCum = val
				if strings.HasSuffix(labels, `le="+Inf"`) {
					sawInf = true
				}
			case strings.HasSuffix(name, "_count"):
				if !sawInf {
					return fmt.Errorf("line %d: histogram %q missing +Inf bucket", ln, curFam)
				}
				if labels != "" && labels != curSeries {
					return fmt.Errorf("line %d: _count labels {%s} do not match bucket series {%s}",
						ln, labels, curSeries)
				}
				histCounts[curFam+"{"+labels+"}"] = [2]float64{lastCum, val}
			}
		default:
			return fmt.Errorf("line %d: sample %q before any TYPE line", ln, series)
		}
	}
	for fam, cc := range histCounts {
		if cc[0] != cc[1] {
			return fmt.Errorf("histogram %q: +Inf bucket %g != count %g", fam, cc[0], cc[1])
		}
	}
	return sc.Err()
}

func buildMetricsRegistry() *Registry {
	r := NewRegistry()
	r.Counter("pfs_read_bytes").Add(1 << 20)
	r.Counter("cluster_jobs_submitted").Set(8)
	r.GaugeVec("memo_events", "kind").With("hits").Set(3)
	r.Gauge("cluster_makespan_seconds").Set(1.5)
	h := r.Histogram("cluster_queue_wait_seconds", 0.001, 0.01, 0.1, 1)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	tv := r.CounterVec("cluster_tenant_jobs_admitted", "tenant", "class")
	tv.With("acme", "batch").Add(5)
	tv.With("acme", "interactive").Inc()
	tv.With("zeta", "batch").Add(2)
	gv := r.GaugeVec("pfs_ost_busy_seconds", "ost")
	gv.With("0").Set(1.25)
	gv.With("1").Set(0.5)
	hv := r.HistogramVec("cluster_tenant_queue_wait_seconds", []float64{0.01, 0.1, 1}, "tenant", "class")
	hv.With("acme", "batch").Observe(0.05)
	hv.With("acme", "batch").Observe(2)
	hv.With("zeta", "batch").Observe(0.001)
	return r
}

func TestWriteOpenMetricsLintsClean(t *testing.T) {
	var buf bytes.Buffer
	if err := buildMetricsRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := lintPromText(buf.Bytes()); err != nil {
		t.Fatalf("%v\nexposition:\n%s", err, buf.String())
	}
	for _, want := range []string{
		"# TYPE pfs_read_bytes counter\npfs_read_bytes 1.048576e+06\n",
		"# TYPE memo_events gauge\nmemo_events{kind=\"hits\"} 3\n",
		`cluster_queue_wait_seconds_bucket{le="0.1"} 2`,
		`cluster_queue_wait_seconds_bucket{le="+Inf"} 3`,
		"cluster_queue_wait_seconds_count 3\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWriteOpenMetricsDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	buildMetricsRegistry().WriteOpenMetrics(&b1)
	buildMetricsRegistry().WriteOpenMetrics(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("exposition not byte-deterministic")
	}
}

func TestWriteOpenMetricsEmptyAndNil(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteOpenMetrics(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("empty registry: err %v, %d bytes", err, buf.Len())
	}
	var nilR *Registry
	if err := nilR.WriteOpenMetrics(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry: err %v, %d bytes", err, buf.Len())
	}
	if err := lintPromText(nil); err != nil {
		t.Fatalf("empty exposition rejected: %v", err)
	}
}

func TestLintCatchesMalformedExpositions(t *testing.T) {
	bad := [][]byte{
		[]byte("pfs_read_bytes 1\n"),                                               // sample before TYPE
		[]byte("# TYPE a counter\na one\n"),                                        // unparseable value
		[]byte("# TYPE a counter\na 1\n# TYPE a counter\na 2\n"),                   // duplicate family
		[]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"), // not cumulative
	}
	for i, b := range bad {
		if err := lintPromText(b); err == nil {
			t.Fatalf("case %d accepted:\n%s", i, b)
		}
	}
}
