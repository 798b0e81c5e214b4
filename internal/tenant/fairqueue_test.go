package tenant

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// drain pulls n items and tallies them by tenant.
func drain(t *testing.T, f *FairQueue[int], n int) map[string]int {
	t.Helper()
	got := map[string]int{}
	for i := 0; i < n; i++ {
		_, id, ok := f.Dequeue()
		if !ok {
			t.Fatalf("queue reported done after %d of %d items", i, n)
		}
		got[id]++
	}
	return got
}

func fill(t *testing.T, f *FairQueue[int], id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.Enqueue(id, i); err != nil {
			t.Fatalf("enqueue %s #%d: %v", id, i, err)
		}
	}
}

// A single-tenant queue is a FIFO: DRR must not reorder within a
// tenant.
func TestFairQueueFIFOWithinTenant(t *testing.T) {
	f := NewFairQueue[int](0, nil)
	for i := 0; i < 10; i++ {
		if err := f.Enqueue("a", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		v, id, ok := f.Dequeue()
		if !ok || id != "a" || v != i {
			t.Fatalf("dequeue #%d = (%d, %q, %v), want (%d, a, true)", i, v, id, ok, i)
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after draining", f.Len())
	}
}

// Equal weights, skewed offered load: the flooding tenant must not
// starve the light one. While both are backlogged, service alternates
// 1:1 regardless of backlog depth.
func TestFairQueueEqualWeightSkewedLoad(t *testing.T) {
	f := NewFairQueue[int](1000, nil)
	fill(t, f, "flood", 100)
	fill(t, f, "light", 10)

	// The first 20 dequeues must serve both tenants evenly: the light
	// tenant gets ~10 of them even though the flooder enqueued first
	// and 10x as much.
	got := drain(t, f, 20)
	if got["light"] < 8 {
		t.Fatalf("light tenant got %d of the first 20 slots (flood got %d): starved", got["light"], got["flood"])
	}
	// The remainder is all flood.
	rest := drain(t, f, 90)
	if rest["flood"] != 90 {
		t.Fatalf("tail = %v, want 90 flood", rest)
	}
}

// The WFQ fairness property: over any interval where every tenant
// stays backlogged, each tenant's served share is proportional to its
// weight, within tolerance.
func TestFairQueueWeightedShareProperty(t *testing.T) {
	weights := map[string]int{"w1": 1, "w3": 3, "w6": 6}
	f := NewFairQueue[int](10000, func(id string) int { return weights[id] })
	const per = 600
	for id := range weights {
		fill(t, f, id, per)
	}
	// Drain while all three stay backlogged: 600 items of a 1800-item
	// backlog, then check shares against weights 1:3:6.
	const take = 600
	got := drain(t, f, take)
	total := 0
	for _, w := range weights {
		total += w
	}
	for id, w := range weights {
		wantShare := float64(w) / float64(total)
		gotShare := float64(got[id]) / float64(take)
		// DRR serves whole rounds of 1+3+6 credits, so shares are exact
		// up to one partial round; 2% absolute absorbs the boundary.
		if math.Abs(gotShare-wantShare) > 0.02 {
			t.Errorf("tenant %s: served share %.3f, weight share %.3f (served %d of %d)",
				id, gotShare, wantShare, got[id], take)
		}
	}
	if t.Failed() {
		t.Fatalf("served by tenant: %v", got)
	}
}

// Closed-loop churn: each stream keeps exactly one request in flight,
// re-enqueueing only after the previous one is served — the pattern a
// synchronous client fleet produces. The light tenant runs a single
// stream, so its queue empties and rejoins the ring on every service
// while the heavy tenant stays backlogged; service must still split
// ~50/50. (Regressions: the scheduler used to issue a queue's credits
// on the walk's advance past it, so a queue the cursor landed on
// creditless was skipped every round — heavy share 0.667; and a tenant
// rejoining right after its own turn used to land on the cursor and be
// served again ahead of its successor — heavy share near 0.)
//
// The loop is lock-step: the worker waits for the served stream to
// re-enqueue before it dequeues again, and the run is sized in served
// items, not wall-clock time. The schedule, and so the share, is the
// same on an idle and on a loaded machine.
func TestFairQueueClosedLoopChurn(t *testing.T) {
	const sample = 400 // served items the share is measured over
	f := NewFairQueue[chan struct{}](64, nil)

	var stop atomic.Bool
	var wg sync.WaitGroup
	requeued := make(chan struct{}) // a served stream re-enqueued or exited
	stream := func(id string) {
		ch := make(chan struct{})
		if err := f.Enqueue(id, ch); err != nil {
			t.Fatalf("enqueue %s: %v", id, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				<-ch
				if stop.Load() {
					requeued <- struct{}{}
					return
				}
				ch = make(chan struct{})
				err := f.Enqueue(id, ch)
				requeued <- struct{}{}
				if err != nil {
					t.Errorf("enqueue %s: %v", id, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		stream("heavy")
	}
	stream("light")

	// Single worker. It counts the first sample items, then keeps
	// serving so every stream's last in-flight request completes and
	// the stream exits.
	served := map[string]int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for {
			ch, id, ok := f.Dequeue()
			if !ok {
				return
			}
			if n < sample {
				served[id]++
				if n++; n == sample {
					stop.Store(true)
				}
			}
			close(ch)
			<-requeued
		}
	}()
	wg.Wait()
	f.Close()
	<-done

	share := float64(served["heavy"]) / float64(sample)
	t.Logf("heavy %d, light %d (heavy share %.3f)", served["heavy"], served["light"], share)
	if share < 0.4 || share > 0.6 {
		t.Fatalf("heavy share %.3f under 10:1 closed-loop load, want ~0.5", share)
	}
}

// A tenant that empties on its own turn and rejoins before the next
// dequeue goes to the back of the round: the successor that is owed
// the next turn is served first.
func TestFairQueueRejoinAfterOwnTurn(t *testing.T) {
	f := NewFairQueue[int](100, nil)
	fill(t, f, "a", 3)
	fill(t, f, "b", 1)
	if got := drain(t, f, 2); got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("first round served %v, want a and b once each", got)
	}
	// b emptied on its turn, the last in the ring; it rejoins at once.
	fill(t, f, "b", 1)
	if _, id, _ := f.Dequeue(); id != "a" {
		t.Fatalf("served %s after b's rejoin, want a: b jumped the round", id)
	}
}

// A tenant that empties and re-enters the ring gets no credit
// carryover: it rejoins with zero deficit and waits its turn.
func TestFairQueueRejoinNoCredit(t *testing.T) {
	f := NewFairQueue[int](100, nil)
	fill(t, f, "a", 1)
	got := drain(t, f, 1)
	if got["a"] != 1 {
		t.Fatalf("drained %v", got)
	}
	// a is now idle; b builds a backlog, then a re-enters.
	fill(t, f, "b", 4)
	fill(t, f, "a", 4)
	got = drain(t, f, 8)
	if got["a"] != 4 || got["b"] != 4 {
		t.Fatalf("served %v, want 4 each", got)
	}
}

// Enqueue past a tenant's cap fails that tenant only, with a typed
// FullError; the other tenant keeps admitting.
func TestFairQueuePerTenantCap(t *testing.T) {
	f := NewFairQueue[int](2, nil)
	fill(t, f, "a", 2)
	err := f.Enqueue("a", 99)
	var full *FullError
	if !errors.As(err, &full) || full.Tenant != "a" || full.Depth != 2 {
		t.Fatalf("overfull enqueue = %v, want FullError{a, 2}", err)
	}
	if err := f.Enqueue("b", 1); err != nil {
		t.Fatalf("b admission blocked by a's full queue: %v", err)
	}
}

// Close drains: pending items keep flowing, then Dequeue reports done;
// post-close Enqueue is refused.
func TestFairQueueCloseDrains(t *testing.T) {
	f := NewFairQueue[int](10, nil)
	fill(t, f, "a", 3)
	f.Close()
	if err := f.Enqueue("a", 4); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-close enqueue = %v, want ErrQueueClosed", err)
	}
	got := drain(t, f, 3)
	if got["a"] != 3 {
		t.Fatalf("close dropped items: %v", got)
	}
	if _, _, ok := f.Dequeue(); ok {
		t.Fatal("Dequeue returned an item from a drained closed queue")
	}
}

// Blocked Dequeuers wake on Close and on Enqueue; concurrent producers
// and consumers agree on the item count.
func TestFairQueueConcurrent(t *testing.T) {
	f := NewFairQueue[int](10000, nil)
	const producers, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := string(rune('a' + p%4))
			for i := 0; i < per; i++ {
				if err := f.Enqueue(id, i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	var consumed sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for c := 0; c < 4; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				_, _, ok := f.Dequeue()
				if !ok {
					return
				}
				mu.Lock()
				total++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	f.Close()
	consumed.Wait()
	if total != producers*per {
		t.Fatalf("consumed %d, want %d", total, producers*per)
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after drain", f.Len())
	}
}
