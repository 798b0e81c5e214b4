package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tenant"
	"repro/internal/version"
)

// Jobs is the async/batch translation layer: POST /v1/batch accepts a
// set of translate jobs and returns ids immediately; runners drain
// them through the same Service (so every job passes the same
// admission, shedding, breakers, and cache as a synchronous request);
// GET /v1/jobs/{id} polls or long-polls for the outcome. Every state
// transition is journaled, so a restarted daemon replays the log,
// completes already-cached fingerprints instantly, and resumes the
// rest — accepted work reaches a terminal state exactly once even
// across kill -9.

// JobState is a job's lifecycle position. Terminal states are JobDone
// and JobFailed; everything else resumes after a crash.
type JobState string

const (
	JobAccepted     JobState = "accepted"
	JobSynthesizing JobState = "synthesizing"
	JobTranslating  JobState = "translating"
	JobDone         JobState = "done"
	JobFailed       JobState = "failed"
)

func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

var jobStates = []JobState{JobAccepted, JobSynthesizing, JobTranslating, JobDone, JobFailed}

// MaxBatchJobs bounds one POST /v1/batch submission.
const MaxBatchJobs = 1024

// JobsConfig tunes the async job manager.
type JobsConfig struct {
	// Dir is the journal directory (required).
	Dir string
	// SegmentBytes triggers a checkpoint (journal compaction) once the
	// active segment crosses it; 0 means 4MiB.
	SegmentBytes int64
	// Runners is the number of goroutines draining the job queue; 0
	// means 2. Each runner's work still flows through the service's own
	// worker pool and admission.
	Runners int
	// RetainDone caps how many terminal jobs stay queryable; older ones
	// are evicted (404) at the next checkpoint or recovery. 0 means 256.
	RetainDone int
	// Metrics receives the journal and job instruments; nil disables.
	Metrics *obs.Registry
	// Logf receives operational one-liners; nil discards.
	Logf func(format string, args ...any)
	// NoSync disables journal fsyncs (benchmarks only).
	NoSync bool
	// JobQuota resolves a tenant id to its concurrent (non-terminal)
	// async-job cap; nil or values <= 0 mean unlimited. Typically
	// tenant.(*Registry).MaxJobs. Anonymous submissions ("" id) are
	// never capped.
	JobQuota func(tenantID string) int
}

// JobsRecovery reports what a restart replayed.
type JobsRecovery struct {
	// Records and Dropped echo the journal replay.
	Records int
	Dropped int
	// Jobs is how many jobs were reconstructed; Resumed how many were
	// non-terminal and re-queued for execution.
	Jobs    int
	Resumed int
	// Evicted counts terminal jobs aged out by RetainDone.
	Evicted int
	Elapsed time.Duration
}

// BatchItem is one job in a POST /v1/batch submission.
type BatchItem struct {
	Source string `json:"source"` // "auto"/"" detects
	Target string `json:"target"`
	IR     string `json:"ir"`
}

// JobView is the externally visible snapshot of one job.
type JobView struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Tenant   string   `json:"tenant,omitempty"`
	Source   string   `json:"source,omitempty"`
	Target   string   `json:"target"`
	Route    []string `json:"route,omitempty"`
	IR       string   `json:"ir,omitempty"` // translated output once done
	Degraded bool     `json:"degraded,omitempty"`
	Dropped  int      `json:"dropped_sites,omitempty"`
	Error    string   `json:"error,omitempty"`
	Class    string   `json:"class,omitempty"`
	ExitCode int      `json:"exit_code,omitempty"`
	Requeues int      `json:"requeues,omitempty"`
}

// jobWire is the journal record. Op "job" carries the full job (at
// submit, at each terminal transition, and in checkpoint snapshots —
// replay overwrites by id, so re-reading one is idempotent); op
// "state" is a lightweight intermediate transition.
type jobWire struct {
	Op           string   `json:"op"`
	ID           string   `json:"id,omitempty"`
	Seq          int64    `json:"seq,omitempty"`
	Tenant       string   `json:"tenant,omitempty"`
	Source       string   `json:"source,omitempty"`
	Target       string   `json:"target,omitempty"`
	IR           string   `json:"ir,omitempty"`
	State        string   `json:"state,omitempty"`
	ResultIR     string   `json:"result_ir,omitempty"`
	ResultSource string   `json:"result_source,omitempty"`
	Route        []string `json:"route,omitempty"`
	Degraded     bool     `json:"degraded,omitempty"`
	Dropped      int      `json:"dropped,omitempty"`
	Error        string   `json:"error,omitempty"`
	Class        string   `json:"class,omitempty"`
	Requeues     int      `json:"requeues,omitempty"`
	Submitted    int64    `json:"submitted,omitempty"`
	Finished     int64    `json:"finished,omitempty"`
}

// jobRec is the in-memory job.
type jobRec struct {
	id           string
	seq          int64
	tenant       string // submitting tenant id ("" = anonymous)
	source       string // as submitted; "auto"/"" means detect
	target       string
	ir           string
	state        JobState
	resultIR     string
	resultSource string
	route        []string
	degraded     bool
	dropped      int
	errMsg       string
	class        string
	requeues     int
	submitted    time.Time
	finished     time.Time
	done         chan struct{} // closed when terminal
}

func (j *jobRec) view() JobView {
	v := JobView{
		ID:       j.id,
		State:    string(j.state),
		Tenant:   j.tenant,
		Source:   j.source,
		Target:   j.target,
		Route:    j.route,
		Degraded: j.degraded,
		Dropped:  j.dropped,
		Error:    j.errMsg,
		Class:    j.class,
		Requeues: j.requeues,
	}
	if j.state == JobDone {
		v.IR = j.resultIR
		if j.resultSource != "" {
			v.Source = j.resultSource
		}
	}
	if j.state == JobFailed && j.class != "" {
		v.ExitCode = exitCodeForClass(j.class)
	}
	return v
}

func (j *jobRec) wire() jobWire {
	return jobWire{
		Op:           "job",
		ID:           j.id,
		Seq:          j.seq,
		Tenant:       j.tenant,
		Source:       j.source,
		Target:       j.target,
		IR:           j.ir,
		State:        string(j.state),
		ResultIR:     j.resultIR,
		ResultSource: j.resultSource,
		Route:        j.route,
		Degraded:     j.degraded,
		Dropped:      j.dropped,
		Error:        j.errMsg,
		Class:        j.class,
		Requeues:     j.requeues,
		Submitted:    j.submitted.UnixNano(),
		Finished:     j.finished.UnixNano(),
	}
}

func jobFromWire(w jobWire) *jobRec {
	j := &jobRec{
		id:           w.ID,
		seq:          w.Seq,
		tenant:       w.Tenant,
		source:       w.Source,
		target:       w.Target,
		ir:           w.IR,
		state:        JobState(w.State),
		resultIR:     w.ResultIR,
		resultSource: w.ResultSource,
		route:        w.Route,
		degraded:     w.Degraded,
		dropped:      w.Dropped,
		errMsg:       w.Error,
		class:        w.Class,
		requeues:     w.Requeues,
		submitted:    time.Unix(0, w.Submitted),
		finished:     time.Unix(0, w.Finished),
		done:         make(chan struct{}),
	}
	if j.state.Terminal() {
		close(j.done)
	}
	return j
}

// exitCodeForClass maps a journaled class name back to its exit code
// without holding the original error.
func exitCodeForClass(class string) int {
	for _, c := range failure.Classes() {
		if c.Error() == class {
			return failure.ExitCode(c)
		}
	}
	return 1
}

// jobsMetrics pre-binds the job instruments; zero value inert.
type jobsMetrics struct {
	submitted *obs.Counter
	terminal  map[JobState]*obs.Counter
	byState   map[JobState]*obs.Gauge
}

func newJobsMetrics(reg *obs.Registry) jobsMetrics {
	if reg == nil {
		return jobsMetrics{}
	}
	m := jobsMetrics{
		submitted: reg.Counter("siro_jobs_submitted_total", "Async translate jobs accepted via /v1/batch."),
		terminal:  map[JobState]*obs.Counter{},
		byState:   map[JobState]*obs.Gauge{},
	}
	for _, st := range []JobState{JobDone, JobFailed} {
		m.terminal[st] = reg.Counter("siro_jobs_terminal_total", "Async jobs reaching a terminal state.", "state", string(st))
	}
	for _, st := range jobStates {
		m.byState[st] = reg.Gauge("siro_jobs", "Async jobs currently in each state.", "state", string(st))
	}
	return m
}

// Jobs manages async translate jobs on top of a durable journal.
type Jobs struct {
	svc *Service
	cfg JobsConfig
	jl  *journal.Journal
	met jobsMetrics

	mu   sync.Mutex
	byID map[string]*jobRec
	seq  int64

	pending chan string
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	closeOnce sync.Once
}

// NewJobs opens (or creates) the job journal under cfg.Dir, replays
// it, re-queues unfinished work, and starts the runners. Call it
// before the daemon's listener opens so recovered state is never
// racing live traffic.
func NewJobs(svc *Service, cfg JobsConfig) (*Jobs, *JobsRecovery, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 2
	}
	if cfg.RetainDone <= 0 {
		cfg.RetainDone = 256
	}
	jl, jrec, err := journal.Open(journal.Config{
		Dir:     cfg.Dir,
		Name:    "jobs",
		NoSync:  cfg.NoSync,
		Metrics: cfg.Metrics,
		Logf:    cfg.Logf,
	})
	if err != nil {
		return nil, nil, err
	}
	js := &Jobs{
		svc:     svc,
		cfg:     cfg,
		jl:      jl,
		met:     newJobsMetrics(cfg.Metrics),
		byID:    map[string]*jobRec{},
		pending: make(chan string, 4096),
	}
	js.ctx, js.cancel = context.WithCancel(context.Background())

	rec := &JobsRecovery{Records: len(jrec.Records), Dropped: jrec.Dropped, Elapsed: jrec.Elapsed}
	for _, raw := range jrec.Records {
		var w jobWire
		if err := json.Unmarshal(raw, &w); err != nil {
			rec.Dropped++ // unparseable record: count with the corrupt ones
			continue
		}
		switch w.Op {
		case "job":
			js.byID[w.ID] = jobFromWire(w)
			if w.Seq >= js.seq {
				js.seq = w.Seq + 1
			}
		case "state":
			if j := js.byID[w.ID]; j != nil && !j.state.Terminal() {
				j.state = JobState(w.State)
			}
		}
	}
	rec.Evicted = js.evictLocked()

	// Non-terminal jobs restart from accepted: their intermediate
	// progress is advisory, and re-running is safe — the content-
	// addressed artifact cache means an already-synthesized pair
	// completes without re-synthesis.
	var resume []*jobRec
	for _, j := range js.byID {
		if !j.state.Terminal() {
			j.state = JobAccepted
			resume = append(resume, j)
		}
	}
	sort.Slice(resume, func(i, k int) bool { return resume[i].seq < resume[k].seq })
	for _, j := range resume {
		js.pending <- j.id
	}
	rec.Jobs = len(js.byID)
	rec.Resumed = len(resume)
	js.gaugesLocked()

	// Compact the replayed history into one fresh snapshot segment.
	if jrec.Segments > 0 {
		if err := jl.Checkpoint(js.snapshot); err != nil {
			jl.Close()
			return nil, nil, err
		}
	}

	for i := 0; i < cfg.Runners; i++ {
		js.wg.Add(1)
		go js.runner()
	}
	return js, rec, nil
}

// Submit validates and accepts a batch: either every job is accepted
// (durably journaled, ids returned) or none is. The batch passes the
// same admission gate as a synchronous request, plus the submitting
// tenant's concurrent-job quota (ctx carries the identity; anonymous
// submissions are uncapped).
func (js *Jobs) Submit(ctx context.Context, items []BatchItem) ([]string, error) {
	if len(items) == 0 {
		return nil, failure.Wrapf(failure.Parse, "empty batch")
	}
	if len(items) > MaxBatchJobs {
		return nil, failure.Wrapf(failure.Parse, "batch of %d exceeds limit %d", len(items), MaxBatchJobs)
	}
	if err := js.svc.Ready(); err != nil {
		return nil, err
	}
	tenantID := tenantOf(ctx)
	if err := js.checkQuota(tenantID, len(items)); err != nil {
		return nil, err
	}
	// Validate the whole batch before accepting any of it.
	for i, it := range items {
		if _, err := version.Parse(it.Target); err != nil {
			return nil, failure.Wrapf(failure.Parse, "job %d: target: %v", i, err)
		}
		if it.Source != "" && it.Source != "auto" {
			if _, err := version.Parse(it.Source); err != nil {
				return nil, failure.Wrapf(failure.Parse, "job %d: source: %v", i, err)
			}
		}
	}

	js.mu.Lock()
	jobs := make([]*jobRec, 0, len(items))
	for _, it := range items {
		j := &jobRec{
			id:        newJobID(),
			seq:       js.seq,
			tenant:    tenantID,
			source:    it.Source,
			target:    it.Target,
			ir:        it.IR,
			state:     JobAccepted,
			submitted: time.Now(),
			done:      make(chan struct{}),
		}
		js.seq++
		js.byID[j.id] = j
		jobs = append(jobs, j)
	}
	wires := make([][]byte, len(jobs))
	for i, j := range jobs {
		wires[i], _ = json.Marshal(j.wire())
	}
	js.gaugesLocked()
	js.mu.Unlock()

	// One durable commit covers the batch: async-append all but the
	// last record, then wait on the last — the single committer
	// preserves order, so when the last is fsynced so are the rest.
	for i, w := range wires {
		var err error
		if i < len(wires)-1 {
			err = js.jl.AppendAsync(w)
		} else {
			err = js.jl.Append(w)
		}
		if err != nil {
			js.mu.Lock()
			for _, j := range jobs {
				delete(js.byID, j.id)
			}
			js.gaugesLocked()
			js.mu.Unlock()
			return nil, failure.Wrapf(failure.Budget, "journal append: %v", err)
		}
	}
	if js.met.submitted != nil {
		js.met.submitted.Add(int64(len(jobs)))
	}

	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
		js.enqueue(j.id)
	}
	return ids, nil
}

// checkQuota rejects a batch that would push the tenant past its
// concurrent-job cap. Already-accepted non-terminal jobs count; the
// rejection is a typed 429 so runners and clients back off rather
// than fail.
func (js *Jobs) checkQuota(tenantID string, adding int) error {
	if js.cfg.JobQuota == nil || tenantID == "" {
		return nil
	}
	max := js.cfg.JobQuota(tenantID)
	if max <= 0 {
		return nil
	}
	js.mu.Lock()
	active := 0
	for _, j := range js.byID {
		if j.tenant == tenantID && !j.state.Terminal() {
			active++
		}
	}
	js.mu.Unlock()
	if active+adding > max {
		return resilience.QuotaExceeded(time.Second,
			"tenant %q: %d jobs active, batch of %d exceeds cap %d", tenantID, active, adding, max)
	}
	return nil
}

// Get returns the job's current snapshot.
func (js *Jobs) Get(id string) (JobView, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.byID[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Wait long-polls: it returns as soon as the job is terminal, or after
// wait elapses (returning the then-current state), whichever is first.
func (js *Jobs) Wait(ctx context.Context, id string, wait time.Duration) (JobView, bool) {
	js.mu.Lock()
	j, ok := js.byID[id]
	if !ok {
		js.mu.Unlock()
		return JobView{}, false
	}
	done := j.done
	v := j.view()
	js.mu.Unlock()
	if wait <= 0 || v.State == string(JobDone) || v.State == string(JobFailed) {
		return v, true
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-ctx.Done():
	}
	return js.Get(id)
}

// DefaultListLimit caps a GET /v1/jobs listing when the client names
// no limit.
const DefaultListLimit = 100

// List summarizes the newest limit jobs (no IR payloads) plus counts
// by state over every known job. Ordering is deterministic: submission
// order, newest first — seq is assigned under the lock and never
// reused, so equal-time submissions still order stably. limit <= 0
// means DefaultListLimit.
func (js *Jobs) List(limit int) (counts map[string]int, views []JobView) {
	if limit <= 0 {
		limit = DefaultListLimit
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	counts = map[string]int{}
	jobs := make([]*jobRec, 0, len(js.byID))
	for _, j := range js.byID {
		counts[string(j.state)]++
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq > jobs[k].seq })
	if len(jobs) > limit {
		jobs = jobs[:limit]
	}
	for _, j := range jobs {
		v := j.view()
		v.IR = "" // summaries stay small
		views = append(views, v)
	}
	return counts, views
}

// Journal exposes the underlying journal (tests, stats).
func (js *Jobs) Journal() *journal.Journal { return js.jl }

// Drain waits until every accepted job is terminal or ctx expires.
// Graceful shutdown calls it before service admission closes — pending
// jobs still need admission to run — and an expiry is not an error
// worth dying over: whatever is left replays from the journal on the
// next boot.
func (js *Jobs) Drain(ctx context.Context) error {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		pending := 0
		js.mu.Lock()
		for _, j := range js.byID {
			if !j.state.Terminal() {
				pending++
			}
		}
		js.mu.Unlock()
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("jobs drain: %d job(s) still pending (journal recovery resumes them): %w", pending, ctx.Err())
		case <-t.C:
		}
	}
}

// Close stops the runners and closes the journal. Call it after the
// service has drained so in-flight translations finish first.
func (js *Jobs) Close() error {
	var err error
	js.closeOnce.Do(func() {
		js.cancel()
		js.wg.Wait()
		err = js.jl.Close()
	})
	return err
}

func (js *Jobs) logf(format string, args ...any) {
	if js.cfg.Logf != nil {
		js.cfg.Logf(format, args...)
	}
}

// enqueue hands a job id to the runners without ever blocking the
// caller: if the channel is full the id is parked in a goroutine
// (bounded by the journal's accepted set).
func (js *Jobs) enqueue(id string) {
	select {
	case js.pending <- id:
	default:
		go func() {
			select {
			case js.pending <- id:
			case <-js.ctx.Done():
			}
		}()
	}
}

func (js *Jobs) runner() {
	defer js.wg.Done()
	for {
		select {
		case <-js.ctx.Done():
			return
		case id := <-js.pending:
			js.runJob(id)
		}
	}
}

// runJob executes one job through the service. Rejections (shedding,
// draining, breakers) requeue with the rejection's own retry hint —
// recovered jobs re-enter admission like any other client rather than
// bypassing it. Everything else is terminal.
func (js *Jobs) runJob(id string) {
	js.mu.Lock()
	j := js.byID[id]
	if j == nil || j.state.Terminal() {
		js.mu.Unlock()
		return
	}
	src := j.source
	tgt := j.target
	ir := j.ir
	owner := j.tenant
	js.mu.Unlock()

	// Re-adopt the submitting tenant's identity: the job runs under the
	// runner's context, but fair-queue scheduling and per-tenant
	// accounting should see the tenant who submitted it — across
	// restarts too, since the tenant id is journaled with the job.
	ctx := tenant.WithIdentity(js.ctx, owner)

	// Admission: a job is a client like any other.
	if err := js.svc.Ready(); err != nil {
		js.requeue(id, err)
		return
	}

	tgtV, err := version.Parse(tgt)
	if err != nil { // journal corruption shouldn't wedge the queue
		js.finish(id, TextResult{}, failure.Wrap(failure.Parse, err))
		return
	}
	var srcV version.V // zero = detect
	if src != "" && src != "auto" {
		if srcV, err = version.Parse(src); err != nil {
			js.finish(id, TextResult{}, failure.Wrap(failure.Parse, err))
			return
		}
	}

	js.transition(id, JobSynthesizing)
	if srcV.IsValid() {
		// Stage the translator (synthesis) separately so the journal
		// reflects where a crash happened. Errors are not terminal here:
		// a multi-hop route can still serve the pair.
		_ = js.svc.Warm(ctx, srcV, tgtV)
	}

	js.transition(id, JobTranslating)
	res, err := js.svc.TranslateTextResult(ctx, ir, srcV, tgtV)
	if err != nil {
		var rej *resilience.Rejection
		if errors.As(err, &rej) {
			js.requeue(id, err)
			return
		}
		if js.ctx.Err() != nil {
			return // shutting down: the journal resumes this job next boot
		}
		js.finish(id, TextResult{}, err)
		return
	}
	js.finish(id, res, nil)
}

// requeue backs a rejected job off and re-enters it. The delay honors
// the rejection's Retry-After hint.
func (js *Jobs) requeue(id string, cause error) {
	js.mu.Lock()
	if j := js.byID[id]; j != nil {
		j.requeues++
		j.state = JobAccepted
	}
	js.gaugesLocked()
	js.mu.Unlock()
	delay := time.Second
	if d, ok := resilience.RetryAfterHint(cause); ok {
		delay = d
	}
	time.AfterFunc(delay, func() {
		if js.ctx.Err() == nil {
			js.enqueue(id)
		}
	})
}

// transition journals an intermediate state change asynchronously —
// it is advisory progress, cheap to lose (recovery restarts from
// accepted anyway).
func (js *Jobs) transition(id string, st JobState) {
	js.mu.Lock()
	j := js.byID[id]
	if j == nil || j.state.Terminal() {
		js.mu.Unlock()
		return
	}
	j.state = st
	js.gaugesLocked()
	js.mu.Unlock()
	raw, _ := json.Marshal(jobWire{Op: "state", ID: id, State: string(st)})
	js.jl.AppendAsync(raw)
}

// finish commits a terminal state. The order is the crux of
// exactly-once: the terminal record is made durable FIRST, and only
// then does the job become visible as terminal (done channel closed).
// A crash before the fsync replays the job as unfinished and re-runs
// it; a crash after replays it as terminal; no window serves a result
// that a restart would re-run.
func (js *Jobs) finish(id string, res TextResult, cause error) {
	js.mu.Lock()
	j := js.byID[id]
	if j == nil || j.state.Terminal() {
		js.mu.Unlock()
		return
	}
	w := *j // staging copy: journal the terminal state before applying it
	w.finished = time.Now()
	if cause == nil {
		w.state = JobDone
		w.resultIR = res.Rendered
		w.resultSource = res.Source.String()
		w.route = nil
		for _, v := range res.Route {
			w.route = append(w.route, v.String())
		}
		w.degraded = res.Degraded
		w.dropped = res.DroppedSites
	} else {
		w.state = JobFailed
		w.errMsg = cause.Error()
		w.class = classLabel(cause)
	}
	js.mu.Unlock()

	raw, _ := json.Marshal(w.wire())
	if err := js.jl.Append(raw); err != nil {
		js.logf("jobs: journal terminal append for %s: %v", id, err)
		if js.ctx.Err() != nil {
			return
		}
	}

	js.mu.Lock()
	if j.state.Terminal() { // lost a race (shouldn't happen: one owner per id)
		js.mu.Unlock()
		return
	}
	*j = w
	if js.met.terminal != nil {
		js.met.terminal[j.state].Inc()
	}
	js.gaugesLocked()
	js.mu.Unlock()
	close(w.done)

	js.maybeCheckpoint()
}

// maybeCheckpoint compacts the journal once the active segment
// crosses the threshold, bounding growth: the snapshot holds only
// live jobs and the retained terminal window.
func (js *Jobs) maybeCheckpoint() {
	if js.jl.ActiveSize() < js.cfg.SegmentBytes {
		return
	}
	if err := js.jl.Checkpoint(js.snapshot); err != nil {
		js.logf("jobs: checkpoint: %v", err)
	}
}

// snapshot serializes every retained job; the journal's committer
// calls it at the rotation's serialization point.
func (js *Jobs) snapshot() [][]byte {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.evictLocked()
	jobs := make([]*jobRec, 0, len(js.byID))
	for _, j := range js.byID {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([][]byte, 0, len(jobs))
	for _, j := range jobs {
		raw, err := json.Marshal(j.wire())
		if err != nil {
			continue
		}
		out = append(out, raw)
	}
	js.gaugesLocked()
	return out
}

// evictLocked ages out terminal jobs beyond RetainDone (oldest first).
func (js *Jobs) evictLocked() int {
	var term []*jobRec
	for _, j := range js.byID {
		if j.state.Terminal() {
			term = append(term, j)
		}
	}
	if len(term) <= js.cfg.RetainDone {
		return 0
	}
	sort.Slice(term, func(i, k int) bool { return term[i].seq < term[k].seq })
	evict := term[:len(term)-js.cfg.RetainDone]
	for _, j := range evict {
		delete(js.byID, j.id)
	}
	return len(evict)
}

// gaugesLocked recomputes the jobs-by-state gauges. Caller holds mu.
func (js *Jobs) gaugesLocked() {
	if js.met.byState == nil {
		return
	}
	counts := map[JobState]int64{}
	for _, j := range js.byID {
		counts[j.state]++
	}
	for _, st := range jobStates {
		js.met.byState[st].Set(counts[st])
	}
}

// newJobID returns a random 16-hex-digit id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}
