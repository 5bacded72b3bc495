package cluster

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/climate"
	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// TestQueueViewAccessors pins the policy-facing Queue view against
// hand-built cluster state: pending-job fields, the free-rank set before and
// after a placement, the concurrency cap, and the fairshare counters.
func TestQueueViewAccessors(t *testing.T) {
	c := New(Spec{Ranks: 8, RanksPerNode: 4, MaxConcurrent: 1})
	sa, sb := c.Session("alice"), c.Session("bob").SetWeight(2)
	sa.Submit(&Job{Name: "a0", Ranks: 4, Deadline: 10, Priority: 2, EstCost: 3,
		Main: computeJob(1)})
	sb.Submit(&Job{Name: "b0", Ranks: 2, Main: computeJob(1)})
	q := &Queue{c: c, pool: newRankPool(8)}

	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	want := []QueuedJob{
		{Name: "a0", Width: 4, Deadline: 10, Priority: 2, EstCost: 3,
			Tenant: "alice", Seq: 0},
		{Name: "b0", Width: 2, Tenant: "bob", Seq: 1},
	}
	if got := q.QueuedJobs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("QueuedJobs = %+v, want %+v", got, want)
	}
	if got := q.FreeRanks(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("FreeRanks = %v, want 0-7", got)
	}
	if q.Free() != 8 || q.PoolSize() != 8 {
		t.Fatalf("Free/PoolSize = %d/%d, want 8/8", q.Free(), q.PoolSize())
	}
	if !q.Fits(0) || !q.Fits(1) {
		t.Fatalf("both jobs should fit an empty 8-rank pool")
	}

	// Claim the four lowest ranks by hand: the view must track the pool.
	q.pool.takeLowest(4, nil)
	if got := q.FreeRanks(); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Fatalf("FreeRanks after take = %v, want 4-7", got)
	}
	if !q.Fits(0) || !q.Fits(1) {
		t.Fatalf("both jobs still fit 4 free ranks with the cap open")
	}
	// Fill the single concurrency slot: the cap must close and nothing fits.
	q.running = append(q.running, c.results[0])
	if q.CapFree() {
		t.Fatalf("CapFree with MaxConcurrent=1 and one running job")
	}
	if q.Fits(0) || q.Fits(1) {
		t.Fatalf("jobs fit past a closed concurrency cap")
	}

	c.tenantUse["alice"] = 12
	if got := q.Usage("alice"); got != 12 {
		t.Fatalf("Usage(alice) = %v, want 12", got)
	}
	if got := q.Usage("bob"); got != 0 {
		t.Fatalf("Usage(bob) = %v, want 0", got)
	}
	if q.Weight("alice") != 1 || q.Weight("bob") != 2 {
		t.Fatalf("Weight alice/bob = %v/%v, want 1/2",
			q.Weight("alice"), q.Weight("bob"))
	}
}

// decisionWorkload is the contended mix the decision tests share: a long
// wide job, a blocked head, two safe backfills, and a job whose deadline
// expires while queued. Under easy-backfill it produces two backfill admits,
// shadow-reservation skips, and one deadline drop.
func decisionWorkload(ot *obs.Tracer) (*Cluster, []*JobResult) {
	c := New(Spec{Ranks: 8, RanksPerNode: 4, Policy: "easy-backfill", Obs: ot})
	var jrs []*JobResult
	jrs = append(jrs,
		c.Submit(&Job{Name: "big", Ranks: 6, EstCost: 10, Main: computeJob(10)}),
		c.Submit(&Job{Name: "head", Ranks: 4, EstCost: 3, Main: computeJob(1)}),
		c.Submit(&Job{Name: "small1", Ranks: 2, EstCost: 1, Main: computeJob(1)}),
		c.Submit(&Job{Name: "small2", Ranks: 2, EstCost: 1, Main: computeJob(1)}),
		c.Submit(&Job{Name: "doomed", Ranks: 8, Deadline: 2, EstCost: 1, Main: computeJob(1)}),
	)
	return c, jrs
}

// TestDecisionLogTwoRunsByteIdentical is the determinism gate for the
// decision stream: two identical runs must produce byte-identical mixed
// event logs (events + interleaved decision lines) and byte-identical
// decision-only logs.
func TestDecisionLogTwoRunsByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte) {
		var buf bytes.Buffer
		ot := obs.New()
		sink := obs.NewJSONLSink(&buf)
		ot.SetSink(sink)
		rec := ot.AttachRecorder()
		ot.EnableDecisions()
		c, _ := decisionWorkload(ot)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), decision.AppendLog(nil, rec.Decisions())
	}
	log1, dec1 := run()
	log2, dec2 := run()
	if !bytes.Equal(log1, log2) {
		t.Fatalf("mixed event logs differ across identical runs")
	}
	if !bytes.Equal(dec1, dec2) {
		t.Fatalf("decision logs differ across identical runs")
	}
	if len(dec1) == 0 {
		t.Fatalf("no decision records emitted")
	}
	// The decision lines in the mixed log are exactly the tracer's records.
	recs, err := decision.ReadLog(bytes.NewReader(log1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decision.AppendLog(nil, recs), dec1) {
		t.Fatalf("decision lines in the event log differ from the tracer's records")
	}
}

// attrVal extracts a string attribute from an event-log event.
func attrVal(ev obs.Event, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestDecisionRecordsMatchEventInstants is the cross-check the emission
// refactor exists for: every scheduler event-log instant (deadline-drop,
// backfill, memo-hit, memo-wait, coalesce-attach) must have a decision
// record derived from the same values — same job, same virtual time, the
// matching outcome — and vice versa, so the two streams can never disagree.
func TestDecisionRecordsMatchEventInstants(t *testing.T) {
	// Outcome (+ admit reason) each instant name must pair with.
	pairing := map[string]struct {
		outcome decision.Outcome
		reason  decision.Reason
	}{
		"deadline-drop":   {decision.Drop, decision.DeadlineDrop},
		"backfill":        {decision.Admit, decision.Backfill},
		"memo-hit":        {decision.MemoHit, ""},
		"memo-wait":       {decision.MemoWait, decision.WaitingOnTwin},
		"coalesce-attach": {decision.Coalesce, decision.WaitingOnTwin},
	}

	check := func(name string, build func(t *testing.T, ot *obs.Tracer) *Cluster, wantInstants []string) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			ot := obs.New()
			sink := obs.NewJSONLSink(&buf)
			ot.SetSink(sink)
			rec := ot.AttachRecorder()
			ot.EnableDecisions()
			c := build(t, ot)
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			recs := rec.Decisions()

			seen := map[string]int{}
			for _, ev := range evs {
				p, ok := pairing[ev.Name]
				if !ok {
					continue
				}
				seen[ev.Name]++
				found := false
				for _, rec := range recs {
					if rec.Job == attrVal(ev, "job") && rec.T == ev.T &&
						rec.Outcome == p.outcome && rec.Reason == p.reason {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("instant %s(job=%s, t=%v) has no matching decision record",
						ev.Name, attrVal(ev, "job"), ev.T)
				}
			}
			for _, want := range wantInstants {
				if seen[want] == 0 {
					t.Errorf("workload emitted no %s instant (cross-check vacuous)", want)
				}
			}

			// Reverse direction: every terminal decision record that pairs
			// with an instant must have one at the same job and time.
			for _, rec := range recs {
				var iname string
				for name, p := range pairing {
					if rec.Outcome == p.outcome && rec.Reason == p.reason {
						iname = name
						break
					}
				}
				if iname == "" {
					continue
				}
				found := false
				for _, ev := range evs {
					if ev.Name == iname && attrVal(ev, "job") == rec.Job && ev.T == rec.T {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("decision %s/%s (job=%s, t=%v) has no matching %s instant",
						rec.Outcome, rec.Reason, rec.Job, rec.T, iname)
				}
			}
		})
	}

	check("drop-and-backfill", func(t *testing.T, ot *obs.Tracer) *Cluster {
		c, _ := decisionWorkload(ot)
		return c
	}, []string{"deadline-drop", "backfill"})

	check("memo", func(t *testing.T, ot *obs.Tracer) *Cluster {
		c := New(Spec{Ranks: 4, RanksPerNode: 2, Memo: true, Obs: ot})
		ds, _, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterDataset("climate", ds)
		memoWorkload(c)
		return c
	}, []string{"memo-hit", "memo-wait", "coalesce-attach"})
}

// TestLiveDecisionsEndpoint serves a run's live cell over HTTP. A scraper
// polls /decisions while the simulation appends to the recorder (the race
// detector checks the published prefixes are never written); afterwards
// the final round's frame carries the whole decision stream as an
// immutable prefix, and /decisions serves exactly those records.
func TestLiveDecisionsEndpoint(t *testing.T) {
	ot := obs.New()
	live := obs.NewLive()
	ot.SetLive(live)
	rec := ot.AttachRecorder()
	ot.EnableDecisions()
	srv := httptest.NewServer(obs.TelemetryHandler(live))
	defer srv.Close()
	fetch := func() ([]decision.Record, error) {
		resp, err := srv.Client().Get(srv.URL + "/decisions")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var body struct {
			Decisions []decision.Record `json:"decisions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		return body.Decisions, err
	}
	stop, scraped := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			if _, err := fetch(); err != nil {
				scraped <- err
				return
			}
		}
	}()
	c, _ := decisionWorkload(ot)
	_, err := c.Run()
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	f := live.Latest()
	if f == nil || len(f.Decisions) == 0 || cap(f.Decisions) != len(f.Decisions) {
		t.Fatalf("final frame decisions: %v", f)
	}
	want := decision.AppendLog(nil, rec.Decisions())
	if !bytes.Equal(decision.AppendLog(nil, f.Decisions), want) {
		t.Fatal("final frame does not carry the whole recorded decision stream")
	}
	got, err := fetch()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decision.AppendLog(nil, got), want) {
		t.Fatalf("/decisions served %d records, want the %d published", len(got), len(f.Decisions))
	}
}
