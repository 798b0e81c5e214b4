package cluster

// The HTTP JSON wire protocol between a coordinator and its workers.
// All coordinator endpoints live under /cluster/v1/ on the daemon's
// listener; each worker advertises a listener of its own (registered
// in RegisterRequest.Addr; for `sirod -join` it is the daemon's) serving
// /healthz, /readyz, and the artifact endpoint the coordinator fetches
// from.
//
// Coordinator endpoints:
//
//	POST /cluster/v1/register   RegisterRequest  → RegisterResponse
//	POST /cluster/v1/poll       PollRequest      → PollResponse (long-poll)
//	POST /cluster/v1/complete   CompleteRequest  → CompleteResponse
//	POST /cluster/v1/leave      LeaveRequest     → {} (best-effort dereg)
//	GET  /cluster/v1/workers                     → fleet snapshot (ops)
//
// Worker endpoints (on RegisterRequest.Addr):
//
//	GET /readyz                           heartbeat probe: 503 while draining (sirod's
//	                                      is the service's, also 503 past the shed threshold)
//	GET /cluster/v1/artifact?source=&target=&key=   the pair's artifact bytes
//
// Artifacts are byte-deterministic synth.Export blobs; every transfer
// is verified against its embedded registry fingerprint before it may
// enter a cache (synth.Import refuses a mismatched or torn artifact).

// RegisterRequest announces a worker to the coordinator. Registration
// is idempotent: re-registering refreshes Addr and liveness.
type RegisterRequest struct {
	// ID is the worker's stable identity — the rendezvous-hash anchor,
	// so placement survives reconnects as long as the ID does.
	ID string `json:"id"`
	// Addr is the worker's own HTTP listener ("host:port"), probed for
	// readiness and fetched from for artifacts.
	Addr string `json:"addr"`
}

// RegisterResponse returns the cadence the coordinator expects.
type RegisterResponse struct {
	OK bool `json:"ok"`
	// PollMS is how long the worker should let each poll wait
	// server-side before re-issuing it.
	PollMS int64 `json:"poll_ms"`
	// LeaseMS is the job lease: a leased job not completed within it is
	// requeued onto the next replica.
	LeaseMS int64 `json:"lease_ms"`
}

// PollRequest asks for one job; it doubles as a liveness heartbeat.
type PollRequest struct {
	ID string `json:"id"`
	// WaitMS long-polls up to this long when no job is queued (bounded
	// by the coordinator's own cap).
	WaitMS int64 `json:"wait_ms"`
}

// Job is one synthesis assignment.
type Job struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Target string `json:"target"`
	// Key is the coordinator's content address for the pair
	// (synth.Fingerprint). A worker whose own registry surface hashes
	// differently must refuse the job (Mismatch), not synthesize an
	// artifact the coordinator would reject on ingest.
	Key string `json:"key"`
}

// PollResponse carries at most one job; Job==nil means the wait timed
// out empty and the worker should poll again.
type PollResponse struct {
	Job *Job `json:"job,omitempty"`
}

// CompleteRequest reports a job outcome. Exactly one of Artifact or
// Error is meaningful.
type CompleteRequest struct {
	ID       string `json:"id"` // job ID
	WorkerID string `json:"worker_id"`
	// Artifact is the synth.Export blob (base64 over the wire via
	// encoding/json). The coordinator verifies its embedded fingerprint
	// before the result enters any cache.
	Artifact []byte `json:"artifact,omitempty"`
	// Error + Class report a synthesis failure in the shared taxonomy
	// (failure.Class names). A classified failure is a verdict about the
	// pair and fails the job for every waiter.
	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"`
	// Mismatch means the worker's API-registry fingerprint disagrees
	// with Job.Key (version skew): the job is requeued onto another
	// worker instead of failing.
	Mismatch bool `json:"mismatch,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	OK bool `json:"ok"`
}

// LeaveRequest announces a graceful worker departure; its leased jobs
// requeue immediately instead of waiting for the lease to expire.
type LeaveRequest struct {
	ID string `json:"id"`
}

// WorkerInfo is one row of the fleet snapshot (GET /cluster/v1/workers).
type WorkerInfo struct {
	ID        string `json:"id"`
	Addr      string `json:"addr"`
	Breaker   string `json:"breaker"` // closed / half-open / open
	Jobs      int    `json:"jobs"`    // currently leased
	LastSeen  string `json:"last_seen"`
	Completed int64  `json:"completed"`
}
