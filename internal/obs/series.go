package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the durable time-series leg of the telemetry plane: the
// cluster samples one SeriesPoint per scheduler round (virtual-clock
// aligned) into a SeriesSink, which streams versioned JSONL. Like the event
// log, the serialization is byte-deterministic — identical seeded runs
// produce identical series files — and the sink retains nothing, so it
// stays bounded-memory at million-job scale.

// SeriesSchema is the versioned identifier written in the series header
// line. Readers reject files whose header names a different schema.
const SeriesSchema = "repro.series.v1"

// ClassWait is the sliding-window wait summary for one SLO class at one
// sample point: n admissions in the window, nearest-rank p50/p99 over them.
type ClassWait struct {
	Class string
	N     int
	P50   float64
	P99   float64
}

// SeriesPoint is one round-aligned snapshot of cluster state.
type SeriesPoint struct {
	Round      int     // scheduler decision round
	T          float64 // virtual time of the round boundary
	QueueDepth int
	RanksBusy  int
	RanksTotal int
	OSTBusy    []float64   // cumulative per-OST busy seconds, index = OST id
	Classes    []ClassWait // sorted by class name
}

// sfloat renders a float deterministically (shortest round-trip form).
func sfloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// AppendSeriesJSON appends p's canonical JSONL serialization (no trailing
// newline) to dst: fixed field order, shortest round-trip floats, classes as
// ordered objects. The byte layout is a pure function of the point.
func AppendSeriesJSON(dst []byte, p SeriesPoint) []byte {
	var b strings.Builder
	b.WriteString(`{"e":"pt","round":`)
	b.WriteString(strconv.Itoa(p.Round))
	b.WriteString(`,"t":`)
	b.WriteString(sfloat(p.T))
	b.WriteString(`,"queue":`)
	b.WriteString(strconv.Itoa(p.QueueDepth))
	b.WriteString(`,"busy":`)
	b.WriteString(strconv.Itoa(p.RanksBusy))
	b.WriteString(`,"ranks":`)
	b.WriteString(strconv.Itoa(p.RanksTotal))
	if len(p.OSTBusy) > 0 {
		b.WriteString(`,"ost_busy":[`)
		for i, v := range p.OSTBusy {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(sfloat(v))
		}
		b.WriteByte(']')
	}
	if len(p.Classes) > 0 {
		b.WriteString(`,"classes":[`)
		for i, c := range p.Classes {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"class":`)
			b.Write(jsonStr(c.Class))
			b.WriteString(`,"n":`)
			b.WriteString(strconv.Itoa(c.N))
			b.WriteString(`,"p50":`)
			b.WriteString(sfloat(c.P50))
			b.WriteString(`,"p99":`)
			b.WriteString(sfloat(c.P99))
			b.WriteByte('}')
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return append(dst, b.String()...)
}

// SeriesSink streams SeriesPoints as JSON Lines: one header line naming the
// schema version, then one line per point. Writes are buffered; call Close
// before reading the output. The first write error sticks.
type SeriesSink struct {
	bw  *bufio.Writer
	err error
	buf []byte
	n   int
}

// NewSeriesSink wraps w and writes the schema header immediately.
func NewSeriesSink(w io.Writer) *SeriesSink {
	s := &SeriesSink{bw: bufio.NewWriter(w)}
	_, s.err = s.bw.WriteString(`{"schema":` + string(jsonStr(SeriesSchema)) + "}\n")
	return s
}

// Sample appends one point.
func (s *SeriesSink) Sample(p SeriesPoint) {
	if s == nil || s.err != nil {
		return
	}
	s.n++
	s.buf = AppendSeriesJSON(s.buf[:0], p)
	s.buf = append(s.buf, '\n')
	_, s.err = s.bw.Write(s.buf)
}

// Points returns how many points have been sampled.
func (s *SeriesSink) Points() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Close flushes and returns the first error seen.
func (s *SeriesSink) Close() error {
	if s == nil {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// ReadSeries parses a JSONL series file produced by SeriesSink: it validates
// the schema header and returns the points in file order. Lines with an
// unknown "e" type are skipped, so a v1 reader tolerates forward-compatible
// additions.
func ReadSeries(r io.Reader) ([]SeriesPoint, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: empty series file (missing schema header)")
	}
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("obs: bad series header: %w", err)
	}
	if hdr.Schema != SeriesSchema {
		return nil, fmt.Errorf("obs: series schema %q, want %q", hdr.Schema, SeriesSchema)
	}
	var out []SeriesPoint
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var raw struct {
			E       string    `json:"e"`
			Round   int       `json:"round"`
			T       float64   `json:"t"`
			Queue   int       `json:"queue"`
			Busy    int       `json:"busy"`
			Ranks   int       `json:"ranks"`
			OSTBusy []float64 `json:"ost_busy"`
			Classes []struct {
				Class string  `json:"class"`
				N     int     `json:"n"`
				P50   float64 `json:"p50"`
				P99   float64 `json:"p99"`
			} `json:"classes"`
		}
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return nil, fmt.Errorf("obs: series line %d: %w", line, err)
		}
		if raw.E != "pt" {
			continue
		}
		p := SeriesPoint{Round: raw.Round, T: raw.T, QueueDepth: raw.Queue,
			RanksBusy: raw.Busy, RanksTotal: raw.Ranks, OSTBusy: raw.OSTBusy}
		for _, c := range raw.Classes {
			p.Classes = append(p.Classes, ClassWait{Class: c.Class, N: c.N, P50: c.P50, P99: c.P99})
		}
		out = append(out, p)
	}
	return out, sc.Err()
}
