package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/failure"
	"repro/internal/tenant"
	"repro/internal/version"
)

// Tenancy support: the service itself stays tenant-agnostic on the
// happy path — identity arrives as a context value stamped by the
// tenant.Gateway — but three pieces of machinery become identity-aware:
//
//   - scheduling: with Config.Tenants set, the single FIFO job channel
//     is replaced by a deficit-round-robin tenant.FairQueue, so a
//     tenant flooding the queue delays its own jobs, not everyone's;
//   - coalescing: with Config.Tenants set, identical (pair, input)
//     requests in flight at the same time share one translation,
//     across tenants, while each requester is still charged;
//   - accounting: whenever a request carries an identity, per-tenant
//     request/failure/shed/coalesced counters, read by Stats().Tenants
//     and exported as tenant-labelled metrics. Anonymous requests are
//     never sliced.

// TenantStats is one tenant's slice of the service counters.
type TenantStats struct {
	Requests   int64 `json:"requests"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Shed       int64 `json:"shed,omitempty"`
	Coalesced  int64 `json:"coalesced,omitempty"` // served by another request's in-flight translation
	QueueDepth int   `json:"queue_depth,omitempty"`
	// StreamedBytes is the tenant's streaming-path traffic, request and
	// response bytes combined.
	StreamedBytes int64 `json:"streamed_bytes,omitempty"`
}

// tenantOf is tenant.From with a nil-context guard (internal error
// paths record before any context exists).
func tenantOf(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	return tenant.From(ctx)
}

// queueLen is the pending-job backlog, whichever queue is in use.
func (s *Service) queueLen() int {
	if s.fq != nil {
		return s.fq.Len()
	}
	return len(s.jobs)
}

// nextJob blocks for the next job; ok=false means the queue is drained
// shut and the worker should exit.
func (s *Service) nextJob() (*job, bool) {
	if s.fq != nil {
		j, _, ok := s.fq.Dequeue()
		return j, ok
	}
	j, ok := <-s.jobs
	return j, ok
}

// flight is one in-flight coalescable translation: the leader runs the
// pipeline and publishes the outcome; followers wait on done.
type flight struct {
	done chan struct{}
	res  TextResult
	err  error
}

// coalesceKey identifies a translation by what determines its output:
// the version pair and the exact input text.
func coalesceKey(src, tgt version.V, text string) string {
	sum := sha256.Sum256([]byte(text))
	return src.String() + ">" + tgt.String() + "|" + hex.EncodeToString(sum[:])
}

// coalesced serves a request from an identical in-flight translation
// when one exists, otherwise runs fn as the flight's leader. Followers
// are charged like any other request — record fires per requester, so
// two tenants sharing one synthesis each see it in their accounting —
// and a follower whose leader failed on *its own* budget (deadline,
// shed) retries as leader rather than inheriting a failure that says
// nothing about the pair.
func (s *Service) coalesced(ctx context.Context, key string, fn func() (TextResult, error)) (TextResult, error) {
	for {
		s.coMu.Lock()
		if f := s.flights[key]; f != nil {
			s.coMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				err := failure.FromContext(ctx.Err())
				s.record(ctx, nil, err)
				return TextResult{}, err
			}
			if f.err != nil && failure.ClassOf(f.err) == failure.Budget {
				continue
			}
			s.recordCoalesced(ctx)
			s.record(ctx, f.res.Route, f.err)
			return f.res, f.err
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.coMu.Unlock()

		f.res, f.err = fn()

		s.coMu.Lock()
		delete(s.flights, key)
		s.coMu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// recordCoalesced counts a request served by sharing an in-flight
// translation.
func (s *Service) recordCoalesced(ctx context.Context) {
	s.met.coalesced.Inc()
	if id := tenantOf(ctx); id != "" {
		s.met.tenantMet(id).coalesced.Inc()
	}
}
