package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/adio"
	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/pfs"
)

// This file is the pluggable scheduling-policy layer: admission ordering and
// rank placement, extracted from the scheduler loop behind the Policy
// interface. The scheduler owns the mechanism — the rank pool, the pending
// queue, deadline drops, the memo layer, telemetry — and exposes it to the
// policy through a Queue view; the policy owns only the *choices*: which
// pending job to consider next, whether it may start now, and on which
// ranks.
//
// Contract (enforced by the property harness in harness_test.go):
//
//   - Determinism: a policy's decisions must be a pure function of the Queue
//     state. Ties must be broken by submission sequence (QueuedJob.Seq),
//     never by map iteration or randomness: the same Spec and job list must
//     produce bit-identical schedules and event logs on every run.
//   - No double booking: Admit only places jobs on free ranks (the Queue
//     panics otherwise) and never admits past the concurrency cap.
//   - Work conservation: when the machine is idle and jobs are pending,
//     Admit must start one (every job fits on an empty machine, so a policy
//     may only return from Admit when its next choice does not fit).
//   - No starvation on a finite queue: every job is eventually considered,
//     so every non-deadline-dropped job eventually runs.
//
// Four built-in policies ship with the cluster:
//
//   - "fifo" (default): strict arrival order onto the lowest-numbered free
//     ranks; a head that does not fit blocks the queue. Byte-identical to
//     the pre-policy-refactor scheduler (pinned by the golden event log in
//     internal/experiments/testdata).
//   - "easy-backfill": FCFS with EASY (aggressive) backfilling — a blocked
//     head gets a reservation at the earliest time enough ranks free up
//     (computed from running jobs' EstCost estimates), and jobs behind it
//     may start early only when provably unable to delay that reservation:
//     they finish before it, or they use only ranks the reservation does
//     not need.
//   - "priority": highest Job.Priority first; within a priority, the most
//     urgent absolute deadline first, then FCFS. The best job blocks the
//     queue when it does not fit (no skipping), so admission stays
//     starvation-free.
//   - "fairshare": per-tenant deficit ordering — each tenant's bucket is
//     charged width x service (estimated at admission, trued up at
//     completion), and the pending job of the least-charged tenant,
//     normalized by Session weight, is served first; FCFS within a tenant.

// Policy decides admission order and rank placement for the scheduler.
// Admit runs one admission round: inspect the queue, drop expired jobs it
// considers, and start every job that should run now; it must return once
// its next choice cannot be admitted. It is called at every scheduling
// event (job arrival or completion), on the virtual clock.
//
// Implementations added with RegisterPolicy may keep state across rounds
// (reservations, deficit counters) but must stay deterministic.
type Policy interface {
	// Name reports the registry name the policy was constructed under.
	Name() string
	// Admit runs one admission round over the scheduler's queue view.
	Admit(q *Queue)
}

// QueuedJob is a policy's read-only view of one pending submission.
type QueuedJob struct {
	Name     string
	Width    int     // ranks the job needs
	Submit   float64 // arrival time (virtual seconds)
	Deadline float64 // relative deadline (0 = none); absolute = Submit + Deadline
	Priority int     // higher = more urgent (priority policy)
	EstCost  float64 // estimated service seconds (0 = unknown)
	Tenant   string  // owning session name ("" = direct submission)
	Seq      int     // global submission sequence, for FCFS tie-breaks
}

// RunningJob is a policy's view of one admitted, still-running job.
type RunningJob struct {
	Width  int
	Start  float64
	EstEnd float64 // Start + EstCost; +Inf when the job carried no estimate
	Tenant string
}

// Queue is the scheduler's admission state as seen by a Policy: the pending
// queue, the free-rank set, and the running set, plus the mutating verbs
// (Drop, TryMemo, Admit) that keep the scheduler's bookkeeping and
// telemetry identical no matter which policy drives them.
//
// Indices are positions in the current pending queue; every Drop, TryMemo
// (returning true), and Admit mutates the queue (Admit may additionally
// absorb later jobs into the admitted one via the memo layer), so a policy
// must re-read indices after any mutation.
type Queue struct {
	c       *Cluster
	pool    rankPool
	running []*JobResult // admitted and not yet completed, admission order
}

// rankPool tracks the free world ranks as a bitset: O(1) take/put and
// lowest-free-first placement via trailing-zero scans over 64-rank words,
// replacing the per-admission linear scan over a []bool. Placement order is
// identical to the scan (ascending rank), so schedules are unchanged.
type rankPool struct {
	words []uint64
	n     int // pool size
	free  int // free count
}

func newRankPool(n int) rankPool {
	p := rankPool{words: make([]uint64, (n+63)/64), n: n, free: n}
	for i := 0; i < n; i++ {
		p.words[i>>6] |= 1 << uint(i&63)
	}
	return p
}

func (p *rankPool) isFree(wr int) bool {
	return p.words[wr>>6]&(1<<uint(wr&63)) != 0
}

func (p *rankPool) take(wr int) {
	p.words[wr>>6] &^= 1 << uint(wr&63)
	p.free--
}

func (p *rankPool) put(wr int) {
	p.words[wr>>6] |= 1 << uint(wr&63)
	p.free++
}

// takeLowest claims the k lowest-numbered free ranks and appends them to out.
func (p *rankPool) takeLowest(k int, out []int) []int {
	for wi, w := range p.words {
		for w != 0 && k > 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			out = append(out, wi<<6+b)
			k--
			p.free--
		}
		p.words[wi] = w
		if k == 0 {
			break
		}
	}
	return out
}

// ranks returns the free ranks in ascending order.
func (p *rankPool) ranks(out []int) []int {
	for wi, w := range p.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			out = append(out, wi<<6+b)
		}
	}
	return out
}

// Now returns the current virtual time.
func (q *Queue) Now() float64 { return q.c.env.Now() }

// Len returns the number of pending jobs.
func (q *Queue) Len() int { return q.c.pending.Len() }

// Job returns the policy view of pending job i.
func (q *Queue) Job(i int) QueuedJob {
	jr := q.c.pending.at(i)
	return QueuedJob{
		Name:     jr.Job.Name,
		Width:    jr.Job.Ranks,
		Submit:   jr.Submit,
		Deadline: jr.Job.Deadline,
		Priority: jr.Job.Priority,
		EstCost:  jr.Job.EstCost,
		Tenant:   jr.tenant(),
		Seq:      jr.pid - 1,
	}
}

// QueuedJobs returns the policy view of every pending job, in queue order.
func (q *Queue) QueuedJobs() []QueuedJob {
	out := make([]QueuedJob, q.Len())
	for i := range out {
		out[i] = q.Job(i)
	}
	return out
}

// Expired reports whether pending job i's deadline has passed.
func (q *Queue) Expired(i int) bool {
	jr := q.c.pending.at(i)
	return jr.Job.Deadline > 0 && q.Now() > jr.Submit+jr.Job.Deadline
}

// Free returns the number of free ranks.
func (q *Queue) Free() int { return q.pool.free }

// PoolSize returns the machine's rank-pool size.
func (q *Queue) PoolSize() int { return q.c.spec.Ranks }

// FreeRanks returns the free world ranks in ascending order.
func (q *Queue) FreeRanks() []int {
	return q.pool.ranks(make([]int, 0, q.pool.free))
}

// CapFree reports whether the concurrency cap (Spec.MaxConcurrent) leaves
// room for one more running job.
func (q *Queue) CapFree() bool {
	return q.c.spec.MaxConcurrent <= 0 || len(q.running) < q.c.spec.MaxConcurrent
}

// Fits reports whether pending job i can be admitted right now: enough free
// ranks and concurrency-cap headroom.
func (q *Queue) Fits(i int) bool {
	return q.c.pending.at(i).Job.Ranks <= q.pool.free && q.CapFree()
}

// Running returns the admitted-and-running set in admission order.
func (q *Queue) Running() []RunningJob {
	out := make([]RunningJob, len(q.running))
	for i, jr := range q.running {
		est := math.Inf(1)
		if jr.Job.EstCost > 0 {
			est = jr.Start + jr.Job.EstCost
		}
		out[i] = RunningJob{
			Width: len(jr.Ranks), Start: jr.Start, EstEnd: est,
			Tenant: jr.tenant(),
		}
	}
	return out
}

// Usage returns the tenant's accumulated rank-seconds of delivered service
// (charged width x EstCost at admission and trued up to width x actual
// duration at completion) — the fairshare policy's deficit counter.
func (q *Queue) Usage(tenant string) float64 { return q.c.tenantUse[tenant] }

// Weight returns the tenant's fair-share weight (Session.SetWeight; 1 when
// never set).
func (q *Queue) Weight(tenant string) float64 {
	if w, ok := q.c.tenantWeight[tenant]; ok {
		return w
	}
	return 1
}

// Drop removes expired pending job i from the queue with
// ErrDeadlineExpired. Panics if the job's deadline has not passed — a
// policy may never drop a live job.
func (q *Queue) Drop(i int) {
	if !q.Expired(i) {
		panic(fmt.Sprintf("cluster: policy dropped unexpired job %q", q.c.pending.at(i).Job.Name))
	}
	c := q.c
	jr := c.pending.removeAt(i)
	j := jr.Job
	now := c.env.Now()
	jr.Start, jr.End = now, now
	jr.Err = ErrDeadlineExpired
	jr.DeadlineMiss = true
	if ot := c.obs; ot != nil {
		ot.SetThreadName(0, jr.pid-1, "job "+j.Name)
		ot.Span(0, jr.pid-1, "queued", "sched", jr.Submit, now,
			queuedSpanAttrs(jr)...)
		ot.Instant(0, jr.pid-1, "deadline-drop", "sched", now,
			obs.S("job", j.Name), obs.F("waited", now-jr.Submit),
			obs.F("deadline", j.Deadline))
		m := ot.Metrics()
		m.Counter("cluster_jobs_dropped").Inc()
		m.Counter("cluster_deadline_misses").Inc()
		c.tenantMx(jr).dropped.Inc()
	}
	// Decision record from the same values as the deadline-drop instant
	// above (same job, same now, same waited), so the two streams can never
	// disagree.
	if c.decisionsOn() {
		rec := c.newDecision(jr, decision.Drop)
		rec.Reason = decision.DeadlineDrop
		c.obs.Decision(rec)
	}
}

// TryMemo serves pending job i from the memo layer when possible (cached
// result, or attach to an identical in-flight job); it reports whether the
// job was consumed and removed from the queue.
func (q *Queue) TryMemo(i int) bool {
	c := q.c
	if !c.memoTryComplete(c.pending.at(i), c.env.Now()) {
		return false
	}
	c.pending.removeAt(i)
	return true
}

// Admit starts pending job i now. ranks selects the placement: nil places
// the job on the lowest-numbered free ranks; an explicit slice must name
// exactly the job's width of distinct free ranks. Panics when the job does
// not fit (check Fits first) or the placement is invalid. The admitted
// job's result is returned; the pending queue is re-indexed, and may
// additionally have lost jobs absorbed by the memo layer onto the admitted
// donor.
func (q *Queue) Admit(i int, ranks []int) *JobResult {
	c := q.c
	jr := c.pending.at(i)
	j := jr.Job
	if j.Ranks > q.pool.free || !q.CapFree() {
		panic(fmt.Sprintf("cluster: policy admitted job %q (width %d) with %d free ranks",
			j.Name, j.Ranks, q.pool.free))
	}
	now := c.env.Now()
	// Snapshot the free set before placement: the decision record describes
	// the state the admission decision was made against.
	var preFree int
	var preFreeStr string
	if c.decisionsOn() {
		preFree = q.pool.free
		preFreeStr = decision.FormatRanks(q.pool.ranks(nil))
	}
	c.pending.removeAt(i)
	var members []int
	if ranks == nil {
		members = q.pool.takeLowest(j.Ranks, make([]int, 0, j.Ranks))
	} else {
		if len(ranks) != j.Ranks {
			panic(fmt.Sprintf("cluster: policy placed job %q (width %d) on %d ranks",
				j.Name, j.Ranks, len(ranks)))
		}
		members = make([]int, len(ranks))
		for k, wr := range ranks {
			if wr < 0 || wr >= c.spec.Ranks || !q.pool.isFree(wr) {
				panic(fmt.Sprintf("cluster: policy placed job %q on busy or invalid rank %d",
					j.Name, wr))
			}
			q.pool.take(wr)
			members[k] = wr
		}
	}
	q.running = append(q.running, jr)
	jr.Start = now
	jr.Ranks = members
	c.tenantUse[jr.tenant()] += float64(j.Ranks) * j.EstCost
	// Admission decision record, before memoAdmit so the donor's record
	// precedes any memo-wait/coalesce records of jobs it absorbs. A policy
	// admitting through AdmitBackfilled tags the record via c.decAdmit.
	if c.decisionsOn() {
		rec := c.newDecision(jr, decision.Admit)
		rec.Free, rec.FreeRanks = preFree, preFreeStr
		placed := append([]int(nil), members...)
		sort.Ints(placed)
		rec.Ranks = decision.FormatRanks(placed)
		if c.decAdmit.set {
			rec.Reason = c.decAdmit.reason
			rec.Shadow = c.decAdmit.shadow
		}
		c.obs.Decision(rec)
	}
	// Register jr as an in-flight donor and fuse any queued jobs that can
	// ride on its pass; must precede the assignment sends so the fused
	// consumer list is final before ranks start.
	c.memoAdmit(jr, now)
	cache := &adio.PlanCache{}
	if j.PlanKey != "" {
		cache = c.PlanCache(j.PlanKey)
	}
	ctx := &JobContext{
		cluster: c, job: j, res: jr,
		comm:    c.w.SubNS(c.w.NewNamespace(), members),
		cache:   cache,
		clients: make([]*pfs.Client, len(members)),
		errs:    make([]error, len(members)),
		left:    len(members),
	}
	if ot := c.obs; ot != nil {
		ot.SetProcessName(jr.pid, fmt.Sprintf("job %d: %s", jr.pid-1, j.Name))
		ot.SetThreadName(0, jr.pid-1, "job "+j.Name)
		ot.Span(0, jr.pid-1, "queued", "sched", jr.Submit, now,
			queuedSpanAttrs(jr)...)
		jr.runSpan = ot.Begin(0, jr.pid-1, "run", "sched", now,
			obs.S("job", j.Name), obs.I("ranks", int64(len(members))),
			obs.I("first_rank", int64(members[0])))
		for _, wr := range members {
			ot.BindRank(wr, jr.pid)
			ot.SetThreadName(jr.pid, wr, fmt.Sprintf("rank %d", wr))
		}
		ot.Counter("cluster_queue_depth", now, float64(c.pending.Len()))
		ot.Counter("cluster_ranks_busy", now, float64(c.spec.Ranks-q.pool.free))
		m := ot.Metrics()
		m.Counter("cluster_jobs_admitted").Inc()
		m.Histogram("cluster_queue_wait_seconds").Observe(now - jr.Submit)
		mx := c.tenantMx(jr)
		mx.admitted.Inc()
		mx.wait.Observe(now - jr.Submit)
		if ot.Series() != nil {
			c.recordClassWait(j.Class, now-jr.Submit)
		}
	}
	for _, wr := range members {
		c.assign[wr].Send(ctx, 0, now)
	}
	return jr
}

// AdmitBackfilled admits pending job i as an EASY backfill ahead of a
// blocked head holding a reservation at shadow: the same mechanism as
// Admit, plus the backfill telemetry (counter + event-log instant) and the
// decision record's "backfill" tag. Instant and record are derived from the
// same job and shadow values in one place, so the event log and the
// decision stream can never disagree about a backfill.
func (q *Queue) AdmitBackfilled(i int, ranks []int, shadow float64) *JobResult {
	c := q.c
	c.decAdmit = decAdmitTag{reason: decision.Backfill, shadow: shadow, set: true}
	jr := q.Admit(i, ranks)
	c.decAdmit = decAdmitTag{}
	if ot := c.obs; ot != nil {
		ot.Metrics().Counter("cluster_jobs_backfilled").Inc()
		ot.Instant(0, jr.pid-1, "backfill", "sched", c.env.Now(),
			obs.S("job", jr.Job.Name),
			obs.F("reserved_head_at", shadow))
	}
	return jr
}

// complete is the scheduler's completion hook: free the job's ranks, drop
// it from the running set, and true the tenant's service charge up to the
// actual delivered rank-seconds.
func (q *Queue) complete(jr *JobResult) {
	for _, wr := range jr.Ranks {
		q.pool.put(wr)
	}
	for i, r := range q.running {
		if r == jr {
			q.running = append(q.running[:i], q.running[i+1:]...)
			break
		}
	}
	q.c.tenantUse[jr.tenant()] +=
		float64(len(jr.Ranks)) * ((jr.End - jr.Start) - jr.Job.EstCost)
}

// SchedStats summarizes the scheduling policy's activity over a run; only
// the easy-backfill policy populates it.
type SchedStats struct {
	// Backfilled counts jobs started ahead of a blocked head.
	Backfilled int
	// Slacks records, for each head that held a reservation, how much
	// earlier than the reservation it actually started (reservation minus
	// start). With honest cost estimates every entry is >= 0: backfilling
	// never delayed a head.
	Slacks []float64
}

// SchedStats returns the policy's activity summary. Valid after Run.
func (c *Cluster) SchedStats() SchedStats {
	if p, ok := c.policy.(*easyBackfill); ok {
		return SchedStats{
			Backfilled: p.backfilled,
			Slacks:     append([]float64(nil), p.slacks...),
		}
	}
	return SchedStats{}
}

// Policy returns the cluster's scheduling policy instance.
func (c *Cluster) Policy() Policy { return c.policy }

// ---------------------------------------------------------------------------
// Policy registry

var policyFactories = map[string]func(*Cluster) Policy{
	"fifo":          func(c *Cluster) Policy { return &fifoPolicy{} },
	"easy-backfill": func(c *Cluster) Policy { return &easyBackfill{c: c} },
	"priority":      func(c *Cluster) Policy { return &priorityPolicy{} },
	"fairshare":     func(c *Cluster) Policy { return &fairsharePolicy{} },
}

// RegisterPolicy adds a scheduling policy under name, for Spec.Policy
// selection. Call from init (the registry is not locked); panics on a
// duplicate name.
func RegisterPolicy(name string, factory func(*Cluster) Policy) {
	if _, dup := policyFactories[name]; dup {
		panic(fmt.Sprintf("cluster: policy %q already registered", name))
	}
	policyFactories[name] = factory
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyFactories))
	for n := range policyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newPolicy resolves a Spec.Policy name ("" = fifo).
func newPolicy(name string, c *Cluster) Policy {
	if name == "" {
		name = "fifo"
	}
	f, ok := policyFactories[name]
	if !ok {
		panic(fmt.Sprintf("cluster: unknown scheduling policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", ")))
	}
	return f(c)
}

// ---------------------------------------------------------------------------
// fifo

// fifoPolicy is the pre-refactor scheduler's discipline, verbatim: admit
// from the head while it fits onto the lowest-numbered free ranks; a head
// that does not fit blocks the queue.
type fifoPolicy struct{}

func (*fifoPolicy) Name() string { return "fifo" }

func (*fifoPolicy) Admit(q *Queue) {
	for q.Len() > 0 {
		if q.Expired(0) {
			q.Drop(0)
			continue
		}
		if q.TryMemo(0) {
			continue
		}
		if !q.Fits(0) {
			return // strict FIFO: the head blocks the queue
		}
		q.Admit(0, nil)
	}
}

// ---------------------------------------------------------------------------
// easy-backfill

// slackEps absorbs float rounding when comparing a candidate's estimated
// completion against the head's reservation.
const slackEps = 1e-9

// easyBackfill is FCFS with EASY (aggressive) backfilling: only the blocked
// head holds a reservation, and later jobs may start out of order only when
// they provably cannot delay it — they are estimated to finish before the
// reservation, or they need no more than the ranks the reservation leaves
// spare. With honest estimates (EstCost >= actual service time) the head
// starts no later than under plain FIFO.
type easyBackfill struct {
	c       *Cluster
	haveRes bool
	resSeq  int     // submission seq of the head the reservation belongs to
	resAt   float64 // reserved start time (shadow time)
	// stats surfaced via Cluster.SchedStats
	backfilled int
	slacks     []float64 // reservation - actual start, per reserved head
}

func (*easyBackfill) Name() string { return "easy-backfill" }

func (p *easyBackfill) Admit(q *Queue) {
admit:
	for q.Len() > 0 {
		if q.Expired(0) {
			q.Drop(0)
			continue
		}
		if q.TryMemo(0) {
			continue
		}
		head := q.Job(0)
		if q.Fits(0) {
			if p.haveRes && p.resSeq == head.Seq {
				// The formerly blocked head starts: record how much earlier
				// than its reservation it made it (>= 0 with honest
				// estimates — backfilling never delayed it).
				slack := p.resAt - q.Now()
				p.slacks = append(p.slacks, slack)
				p.haveRes = false
				if ot := p.c.obs; ot != nil {
					ot.Metrics().Histogram("cluster_reservation_slack_seconds").Observe(slack)
				}
			}
			q.Admit(0, nil)
			continue
		}
		// With a concurrency cap, a backfilled job would occupy the slot the
		// head waits for; degrade to plain FIFO blocking.
		if p.c.spec.MaxConcurrent > 0 {
			return
		}
		shadow, extra, ok := easyReservation(q, head.Width)
		if !ok {
			return // running jobs without estimates: no safe reservation
		}
		p.haveRes, p.resSeq, p.resAt = true, head.Seq, shadow
		// Scan candidates behind the head in FCFS order for safe backfills.
		for i := 1; i < q.Len(); {
			if q.Expired(i) {
				q.Drop(i)
				continue
			}
			if q.TryMemo(i) {
				continue
			}
			cand := q.Job(i)
			safe := cand.Width <= extra ||
				(cand.EstCost > 0 && q.Now()+cand.EstCost <= shadow+slackEps)
			if cand.Width <= q.Free() {
				if safe {
					q.AdmitBackfilled(i, nil, shadow)
					p.backfilled++
					continue admit // queue and free set changed: restart the round
				}
				// Fits the free ranks but could delay the head's reservation:
				// the typed cause for this round's skip record.
				q.Blame(i, decision.ShadowReservation, p.resSeq, shadow)
			}
			i++
		}
		return
	}
}

// easyReservation computes the EASY reservation for a blocked head of the
// given width: the shadow time (earliest virtual time enough ranks free up,
// by running jobs' estimated completions) and the extra ranks (free ranks
// the head will not need at that time). Returns ok=false when a running job
// without an estimate blocks the computation.
func easyReservation(q *Queue, width int) (shadow float64, extra int, ok bool) {
	avail := q.Free()
	shadow = q.Now()
	running := q.Running()
	sort.SliceStable(running, func(i, j int) bool {
		return running[i].EstEnd < running[j].EstEnd
	})
	for _, r := range running {
		if avail >= width {
			break
		}
		if math.IsInf(r.EstEnd, 1) {
			return 0, 0, false
		}
		avail += r.Width
		shadow = r.EstEnd
	}
	if avail < width {
		return 0, 0, false
	}
	return shadow, avail - width, true
}

// ---------------------------------------------------------------------------
// priority

// priorityPolicy serves the highest Job.Priority first; within a priority,
// the most urgent absolute deadline first (none = least urgent), then FCFS.
// The chosen job blocks the queue when it does not fit — no skipping — so
// admission order is deterministic and starvation-free on a finite queue.
type priorityPolicy struct{}

func (*priorityPolicy) Name() string { return "priority" }

// priBefore reports whether a should be served before b.
func priBefore(a, b QueuedJob) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	da, db := absDeadline(a), absDeadline(b)
	if da != db {
		return da < db
	}
	return a.Seq < b.Seq
}

// absDeadline returns the job's absolute deadline (+Inf when it has none).
func absDeadline(j QueuedJob) float64 {
	if j.Deadline <= 0 {
		return math.Inf(1)
	}
	return j.Submit + j.Deadline
}

func (*priorityPolicy) Admit(q *Queue) {
	for q.Len() > 0 {
		best := 0
		bj := q.Job(0)
		for i := 1; i < q.Len(); i++ {
			if ji := q.Job(i); priBefore(ji, bj) {
				best, bj = i, ji
			}
		}
		if q.Expired(best) {
			q.Drop(best)
			continue
		}
		if q.TryMemo(best) {
			continue
		}
		if !q.Fits(best) {
			blameHeadOfLine(q, best)
			return
		}
		q.Admit(best, nil)
	}
}

// ---------------------------------------------------------------------------
// fairshare

// fairsharePolicy orders tenants by deficit: each tenant's bucket is
// charged width x service for every job it runs (estimated at admission,
// trued up at completion), and the pending job whose tenant has the
// smallest weight-normalized charge is served first, FCFS within a tenant.
// A flooding tenant therefore pays for its own queue: its charge races
// ahead and other tenants' jobs are interleaved in front of its backlog.
type fairsharePolicy struct{}

func (*fairsharePolicy) Name() string { return "fairshare" }

func (*fairsharePolicy) Admit(q *Queue) {
	for q.Len() > 0 {
		best := 0
		bj := q.Job(0)
		bKey := q.Usage(bj.Tenant) / q.Weight(bj.Tenant)
		for i := 1; i < q.Len(); i++ {
			ji := q.Job(i)
			key := q.Usage(ji.Tenant) / q.Weight(ji.Tenant)
			if key < bKey || (key == bKey && ji.Seq < bj.Seq) {
				best, bj, bKey = i, ji, key
			}
		}
		if q.Expired(best) {
			q.Drop(best)
			continue
		}
		if q.TryMemo(best) {
			continue
		}
		if !q.Fits(best) {
			blameHeadOfLine(q, best)
			return
		}
		q.Admit(best, nil)
	}
}
