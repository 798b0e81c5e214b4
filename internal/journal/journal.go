// Package journal is a durable, crash-recoverable write-ahead log for
// job state. The daemon's queues and singleflight tables are in-memory
// for speed; the journal is what makes the work they carry survive a
// kill -9. Owners append opaque records (the service journals async job
// lifecycle transitions) and replay them on the next boot to
// reconstruct state.
//
// Design:
//
//   - Records are length-prefixed and checksummed: a fixed 8-byte frame
//     (payload length + CRC32C, both little-endian) followed by the
//     payload. CRC32C (Castagnoli) is hardware-accelerated on every
//     deployment target.
//   - Appends are group-committed: concurrent appends coalesce into one
//     write + one fsync, so durability costs are amortized across a
//     batch. Append returns only after its record is fsynced;
//     AppendAsync enqueues and lets the fsync ride the next commit (for
//     hot-path records whose loss on crash is acceptable).
//   - The log is segmented, and segments rotate atomically through
//     checkpoints: Checkpoint writes a snapshot of the owner's live
//     state at the head of a brand-new segment, fsyncs it, and only
//     then deletes the older segments — a crash at any point leaves
//     either the old segments (snapshot not yet durable) or the new one
//     (snapshot authoritative), never neither. This is also the GC:
//     records for completed work vanish as soon as a checkpoint runs,
//     so the journal cannot grow without bound.
//   - Replay tolerates a torn tail: a truncated or corrupt record is
//     detected by the frame and checksum, counted, dropped, and never
//     served — and because the active segment is always freshly created
//     by the current process, a torn tail can never be appended after.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// segment framing.
const (
	header       = "SIROWAL1" // 8-byte segment magic
	frameBytes   = 8          // uint32 length + uint32 CRC32C
	maxRecord    = 64 << 20   // replay sanity bound on one record
	segmentGlob  = "seg-*.wal"
	segmentByFmt = "seg-%016d.wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an append to a closed journal.
var ErrClosed = errors.New("journal: closed")

// Config tunes a Journal. Dir is required; everything else has a
// usable default.
type Config struct {
	// Dir holds the segment files; created on demand.
	Dir string
	// Name labels this journal's metrics and log lines (default
	// "journal") so several journals can share one registry.
	Name string
	// NoSync skips every fsync. Only for benchmarks and tests that
	// measure or don't need durability.
	NoSync bool
	// Metrics registers the journal instruments (appends, fsyncs,
	// replayed, records_dropped, segments, recovery_seconds) into this
	// registry; nil disables them.
	Metrics *obs.Registry
	// Logf, when set, receives operational one-liners (corrupt-tail
	// drops, checkpoint GC).
	Logf func(format string, args ...any)
}

// Recovery reports what Open replayed.
type Recovery struct {
	// Records are the surviving payloads, in append order across all
	// segments (oldest segment first).
	Records [][]byte
	// Segments is how many segment files were replayed.
	Segments int
	// Dropped counts torn or corrupt records detected and discarded
	// (each also discards the rest of its segment — framing after a
	// corrupt record cannot be trusted).
	Dropped int
	// Bytes is the total size replayed.
	Bytes int64
	// Elapsed is the wall time replay took.
	Elapsed time.Duration
}

// journalMetrics pre-binds the journal's instruments; zero value inert.
type journalMetrics struct {
	appends  *obs.Counter
	fsyncs   *obs.Counter
	replayed *obs.Counter
	dropped  *obs.Counter
	segments *obs.Gauge
	recovery *obs.Histogram
}

func newJournalMetrics(reg *obs.Registry, name string) journalMetrics {
	if reg == nil {
		return journalMetrics{}
	}
	return journalMetrics{
		appends:  reg.Counter("siro_journal_appends_total", "Records appended to the job journal.", "journal", name),
		fsyncs:   reg.Counter("siro_journal_fsyncs_total", "Commit-batch fsyncs of the job journal.", "journal", name),
		replayed: reg.Counter("siro_journal_replayed_total", "Records replayed from the job journal at recovery.", "journal", name),
		dropped:  reg.Counter("siro_journal_records_dropped_total", "Torn or corrupt journal records detected and dropped at replay.", "journal", name),
		segments: reg.Gauge("siro_journal_segments", "Journal segment files on disk.", "journal", name),
		recovery: reg.Histogram("siro_journal_recovery_seconds", "Journal replay wall time, one observation per recovery.", nil, "journal", name),
	}
}

// appendReq is one unit of committer work: a record, a checkpoint, or
// both markers nil (never sent).
type appendReq struct {
	rec  []byte
	snap func() [][]byte // non-nil: checkpoint request
	done chan error      // non-nil: caller waits for durability
}

// Journal is an append-only, checksummed, segmented log. All methods
// are safe for concurrent use.
type Journal struct {
	cfg Config
	met journalMetrics

	qmu    sync.Mutex
	qcond  *sync.Cond
	queue  []appendReq
	closed bool

	// Committer-owned state (single goroutine).
	f     *os.File
	index int64 // active segment index

	size     atomic.Int64 // active segment bytes (frame + payload)
	segCount atomic.Int64 // segment files on disk

	done    chan struct{} // committer exited
	ioErrMu sync.Mutex
	ioErr   error // sticky: first write/sync failure poisons the journal
}

func (j *Journal) logf(format string, args ...any) {
	if j.cfg.Logf != nil {
		j.cfg.Logf(format, args...)
	}
}

// Open replays every segment in cfg.Dir (oldest first), starts a fresh
// active segment, and returns the journal plus what was recovered. The
// caller should rebuild its state from Recovery.Records and then call
// Checkpoint to compact the replayed history into the new segment.
func Open(cfg Config) (*Journal, *Recovery, error) {
	if cfg.Dir == "" {
		return nil, nil, errors.New("journal: Dir is required")
	}
	if cfg.Name == "" {
		cfg.Name = "journal"
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{cfg: cfg, met: newJournalMetrics(cfg.Metrics, cfg.Name), done: make(chan struct{})}
	j.qcond = sync.NewCond(&j.qmu)

	start := time.Now()
	indexes, err := j.listSegments()
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{Segments: len(indexes)}
	for _, idx := range indexes {
		path := j.segmentPath(idx)
		recs, dropped, n, err := replaySegment(path)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: replaying %s: %w", path, err)
		}
		if dropped > 0 {
			j.logf("journal[%s]: %s: dropped %d torn/corrupt record(s) at replay", cfg.Name, filepath.Base(path), dropped)
		}
		rec.Records = append(rec.Records, recs...)
		rec.Dropped += dropped
		rec.Bytes += n
	}
	rec.Elapsed = time.Since(start)
	if j.met.replayed != nil {
		j.met.replayed.Add(int64(len(rec.Records)))
		j.met.dropped.Add(int64(rec.Dropped))
		j.met.recovery.ObserveDuration(rec.Elapsed)
	}

	// The active segment is always created fresh by this process — a
	// replayed segment (whose tail may be torn) is never appended to,
	// so torn tails cannot compound.
	next := int64(1)
	if len(indexes) > 0 {
		next = indexes[len(indexes)-1] + 1
	}
	f, err := j.createSegment(next)
	if err != nil {
		return nil, nil, err
	}
	j.f, j.index = f, next
	j.segCount.Store(int64(len(indexes) + 1))
	if j.met.segments != nil {
		j.met.segments.Set(j.segCount.Load())
	}

	go j.commit()
	return j, rec, nil
}

// Append writes one record and returns once it is durable (written and
// fsynced, batched with any concurrent appends).
func (j *Journal) Append(rec []byte) error {
	done := make(chan error, 1)
	if err := j.enqueue(appendReq{rec: rec, done: done}); err != nil {
		return err
	}
	return <-done
}

// AppendAsync enqueues one record without waiting for durability: the
// fsync rides the next commit batch. Use for records whose loss in a
// crash is acceptable (hot-path markers); job lifecycle records should
// use Append.
func (j *Journal) AppendAsync(rec []byte) error {
	return j.enqueue(appendReq{rec: rec})
}

// Checkpoint compacts the journal: snapshot (called by the committer at
// the exact serialization point, so it sees every record appended
// before it and none after) returns the owner's live-state records,
// which become the head of a brand-new segment; once that segment is
// durable every older segment is deleted. Returns when the rotation is
// durable. The snapshot callback may take the owner's locks — the
// journal calls it holding none of its own.
func (j *Journal) Checkpoint(snapshot func() [][]byte) error {
	if snapshot == nil {
		snapshot = func() [][]byte { return nil }
	}
	done := make(chan error, 1)
	if err := j.enqueue(appendReq{snap: snapshot, done: done}); err != nil {
		return err
	}
	return <-done
}

// ActiveSize is the byte size of the active segment — the owner's cue
// to Checkpoint when it crosses the rotation threshold.
func (j *Journal) ActiveSize() int64 { return j.size.Load() }

// Segments is the number of segment files on disk.
func (j *Journal) Segments() int { return int(j.segCount.Load()) }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.cfg.Dir }

// Close flushes and fsyncs everything queued, then closes the active
// segment. Idempotent; appends after Close fail with ErrClosed.
func (j *Journal) Close() error {
	j.qmu.Lock()
	if j.closed {
		j.qmu.Unlock()
		<-j.done
		return j.err()
	}
	j.closed = true
	j.qcond.Signal()
	j.qmu.Unlock()
	<-j.done
	return j.err()
}

// enqueue hands a request to the committer. It never blocks on
// committer progress (the queue is unbounded), so it is safe to call
// while holding owner locks the committer's snapshot callback needs.
func (j *Journal) enqueue(req appendReq) error {
	j.qmu.Lock()
	if j.closed {
		j.qmu.Unlock()
		return ErrClosed
	}
	j.queue = append(j.queue, req)
	j.qcond.Signal()
	j.qmu.Unlock()
	return nil
}

// err returns the sticky I/O error, if any.
func (j *Journal) err() error {
	j.ioErrMu.Lock()
	defer j.ioErrMu.Unlock()
	return j.ioErr
}

func (j *Journal) fail(err error) error {
	j.ioErrMu.Lock()
	if j.ioErr == nil {
		j.ioErr = err
	} else {
		err = j.ioErr
	}
	j.ioErrMu.Unlock()
	return err
}

// commit is the single committer goroutine: it drains the queue in
// batches, writes every record, fsyncs once per batch, and answers the
// waiters. Checkpoints are handled inline at their queue position, so
// a checkpoint's snapshot reflects exactly the records before it.
func (j *Journal) commit() {
	defer close(j.done)
	for {
		j.qmu.Lock()
		for len(j.queue) == 0 && !j.closed {
			j.qcond.Wait()
		}
		batch := j.queue
		j.queue = nil
		closed := j.closed
		j.qmu.Unlock()

		j.processBatch(batch)
		if closed {
			j.qmu.Lock()
			rest := j.queue // appends that raced Close
			j.queue = nil
			j.qmu.Unlock()
			j.processBatch(rest)
			if j.f != nil {
				if !j.cfg.NoSync {
					j.f.Sync()
				}
				j.f.Close()
			}
			return
		}
	}
}

// processBatch writes a run of records with one fsync, splitting at
// checkpoint requests.
func (j *Journal) processBatch(batch []appendReq) {
	for len(batch) > 0 {
		// Find the run of plain appends before the next checkpoint.
		run := len(batch)
		for i, req := range batch {
			if req.snap != nil {
				run = i
				break
			}
		}
		if run > 0 {
			err := j.writeRun(batch[:run])
			for _, req := range batch[:run] {
				if req.done != nil {
					req.done <- err
				}
			}
			batch = batch[run:]
			continue
		}
		// batch[0] is a checkpoint.
		err := j.rotate(batch[0].snap)
		batch[0].done <- err
		batch = batch[1:]
	}
}

// writeRun appends every record in the run and fsyncs once.
func (j *Journal) writeRun(run []appendReq) error {
	if err := j.err(); err != nil {
		return err
	}
	var buf []byte
	for _, req := range run {
		buf = appendFrame(buf, req.rec)
	}
	if _, err := j.f.Write(buf); err != nil {
		return j.fail(fmt.Errorf("journal: write: %w", err))
	}
	if !j.cfg.NoSync {
		if err := j.f.Sync(); err != nil {
			return j.fail(fmt.Errorf("journal: fsync: %w", err))
		}
	}
	j.size.Add(int64(len(buf)))
	if j.met.appends != nil {
		j.met.appends.Add(int64(len(run)))
		j.met.fsyncs.Inc()
	}
	return nil
}

// rotate performs one checkpoint: snapshot records into a fresh
// segment, make it durable, then delete every older segment. Crash
// safety: the old segments are removed only after the new one (and the
// directory entry) is fsynced, so replay always sees either the full
// old history or the authoritative snapshot — snapshot records replay
// last and overwrite, so seeing both is also correct.
func (j *Journal) rotate(snapshot func() [][]byte) error {
	if err := j.err(); err != nil {
		return err
	}
	recs := snapshot()
	next := j.index + 1
	f, err := j.createSegment(next)
	if err != nil {
		return j.fail(err)
	}
	var buf []byte
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return j.fail(fmt.Errorf("journal: checkpoint write: %w", err))
		}
	}
	if !j.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return j.fail(fmt.Errorf("journal: checkpoint fsync: %w", err))
		}
	}
	// The new segment is durable: switch over and GC everything older.
	old := j.index
	if !j.cfg.NoSync {
		j.f.Sync()
	}
	j.f.Close()
	j.f, j.index = f, next
	j.size.Store(int64(len(buf)))
	removed := 0
	indexes, _ := j.listSegments()
	remaining := 0
	for _, idx := range indexes {
		if idx < next {
			if os.Remove(j.segmentPath(idx)) == nil {
				removed++
				continue
			}
		}
		remaining++
	}
	j.syncDir()
	if remaining < 1 {
		remaining = 1 // the active segment is always there
	}
	j.segCount.Store(int64(remaining))
	if j.met.segments != nil {
		j.met.segments.Set(j.segCount.Load())
		j.met.appends.Add(int64(len(recs)))
		j.met.fsyncs.Inc()
	}
	j.logf("journal[%s]: checkpoint: %d live record(s) into %s, removed %d old segment(s) (was seg %d)",
		j.cfg.Name, len(recs), filepath.Base(j.segmentPath(next)), removed, old)
	return nil
}

// createSegment makes a new segment file with its header durable and
// its directory entry fsynced.
func (j *Journal) createSegment(idx int64) (*os.File, error) {
	path := j.segmentPath(idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(header)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("journal: segment header: %w", err)
	}
	if !j.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("journal: segment header fsync: %w", err)
		}
	}
	j.syncDir()
	return f, nil
}

// syncDir fsyncs the journal directory so segment creations and
// removals are durable.
func (j *Journal) syncDir() {
	if j.cfg.NoSync {
		return
	}
	if d, err := os.Open(j.cfg.Dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func (j *Journal) segmentPath(idx int64) string {
	return filepath.Join(j.cfg.Dir, fmt.Sprintf(segmentByFmt, idx))
}

// listSegments returns the segment indexes present, ascending.
func (j *Journal) listSegments() ([]int64, error) {
	matches, err := filepath.Glob(filepath.Join(j.cfg.Dir, segmentGlob))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []int64
	for _, m := range matches {
		var idx int64
		if _, err := fmt.Sscanf(filepath.Base(m), segmentByFmt, &idx); err == nil {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out, nil
}

// appendFrame appends one framed record to buf.
func appendFrame(buf, rec []byte) []byte {
	var frame [frameBytes]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(rec, castagnoli))
	buf = append(buf, frame[:]...)
	return append(buf, rec...)
}

// replaySegment reads one segment, returning the surviving records and
// how many were dropped. A torn or corrupt record stops the segment —
// framing after it cannot be trusted — and counts as one drop. A
// missing or short header means an empty or just-created segment, not
// an error. Only I/O failures are errors.
func replaySegment(path string) (recs [][]byte, dropped int, bytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	bytes = info.Size()

	var hdr [len(header)]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		// Zero-length or truncated-header segment: created but never
		// committed to. Nothing to replay; a non-empty torn header
		// counts as one dropped record.
		if bytes > 0 {
			dropped++
		}
		return nil, dropped, bytes, nil
	}
	if string(hdr[:]) != header {
		// Foreign or corrupt file at a segment name: refuse to guess.
		return nil, 1, bytes, nil
	}
	for {
		var frame [frameBytes]byte
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return recs, dropped, bytes, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, dropped + 1, bytes, nil // torn frame at the tail
			}
			return recs, dropped, bytes, err
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if int64(n) > maxRecord {
			return recs, dropped + 1, bytes, nil // corrupt length: untrustworthy from here
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, dropped + 1, bytes, nil // torn payload at the tail
			}
			return recs, dropped, bytes, err
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, dropped + 1, bytes, nil // corrupt record: drop it and the rest
		}
		recs = append(recs, payload)
	}
}
