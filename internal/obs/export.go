package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// WriteChromeTrace exports a recorded event stream as Chrome trace-event
// JSON (the format Perfetto and chrome://tracing load): the tracer's
// process/thread names first (sorted), then every span rebuilt by Spans as a
// complete "X" event in creation order, then the "sample" events as "C"
// counter events. Timestamps and durations are microseconds of virtual time
// with fixed 3-decimal formatting, so the same run produces byte-identical
// output. The events usually come from the tracer's Recorder; a nil tracer
// exports them without track names.
//
// Layout: pid 0 is the cluster scheduler (one tid per job showing its
// queued/run intervals, plus counter tracks); pid j+1 is job j with one tid
// per world rank showing cc/adio/pfs/mpi detail.
func (t *Tracer) WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	sep := func() {
		if first {
			first = false
			bw.WriteString("\n")
		} else {
			bw.WriteString(",\n")
		}
	}
	if t != nil {
		pids := make([]int, 0, len(t.procs))
		for pid := range t.procs {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			sep()
			bw.WriteString("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
			bw.WriteString(strconv.Itoa(pid))
			bw.WriteString(",\"tid\":0,\"args\":{\"name\":")
			bw.Write(jsonStr(t.procs[pid]))
			bw.WriteString("}}")
		}
		tkeys := make([]threadKey, 0, len(t.threads))
		for k := range t.threads {
			tkeys = append(tkeys, k)
		}
		sort.Slice(tkeys, func(i, j int) bool {
			if tkeys[i].pid != tkeys[j].pid {
				return tkeys[i].pid < tkeys[j].pid
			}
			return tkeys[i].tid < tkeys[j].tid
		})
		for _, k := range tkeys {
			sep()
			bw.WriteString("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":")
			bw.WriteString(strconv.Itoa(k.pid))
			bw.WriteString(",\"tid\":")
			bw.WriteString(strconv.Itoa(k.tid))
			bw.WriteString(",\"args\":{\"name\":")
			bw.Write(jsonStr(t.threads[k]))
			bw.WriteString("}}")
		}
	}
	for _, sp := range Spans(events) {
		sep()
		bw.WriteString("{\"ph\":\"X\",\"name\":")
		bw.Write(jsonStr(sp.Name))
		bw.WriteString(",\"cat\":")
		bw.Write(jsonStr(sp.Cat))
		bw.WriteString(",\"pid\":")
		bw.WriteString(strconv.Itoa(sp.PID))
		bw.WriteString(",\"tid\":")
		bw.WriteString(strconv.Itoa(sp.TID))
		bw.WriteString(",\"ts\":")
		bw.WriteString(usec(sp.Start))
		bw.WriteString(",\"dur\":")
		bw.WriteString(usec(sp.Dur))
		if len(sp.Attrs) > 0 {
			bw.WriteString(",\"args\":{")
			for j, a := range sp.Attrs {
				if j > 0 {
					bw.WriteString(",")
				}
				bw.Write(jsonStr(a.Key))
				bw.WriteString(":")
				bw.Write(jsonStr(a.Val))
			}
			bw.WriteString("}")
		}
		bw.WriteString("}")
	}
	for _, ev := range events {
		if ev.E != "sample" {
			continue
		}
		sep()
		bw.WriteString("{\"ph\":\"C\",\"name\":")
		bw.Write(jsonStr(ev.Name))
		bw.WriteString(",\"pid\":0,\"tid\":0,\"ts\":")
		bw.WriteString(usec(ev.T))
		bw.WriteString(",\"args\":{\"value\":")
		bw.WriteString(strconv.FormatFloat(ev.Value, 'g', -1, 64))
		bw.WriteString("}}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec renders virtual seconds as microseconds with fixed 3-decimal
// precision (nanosecond resolution) — the deterministic timestamp format.
func usec(sec float64) string {
	return strconv.FormatFloat(sec*1e6, 'f', 3, 64)
}

// jsonStr renders s as a JSON string literal.
func jsonStr(s string) []byte {
	b, _ := json.Marshal(s)
	return b
}
