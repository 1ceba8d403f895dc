package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Load generators. Both drive a fixed set of sender goroutines (at most
// one per CPU, each with its own HTTP connection). A sender owns a fixed
// subset of the tenants, so each tenant's stream has one producer and
// its requests arrive in the order they were generated; the truth checks
// rely on that.

// opFunc sends request seq of sender s and reports its outcome. A
// non-nil error counts the request as failed.
type opFunc func(s, seq int) error

// closedResult is what a closed-loop phase measured.
type closedResult struct {
	done   []int             // per sender: requests completed
	stamps [][]time.Duration // per sender: each request's completion, since the start
	ok     [][]bool          // per sender: whether each request succeeded
	failed int
	secs   float64
}

// closedLoop runs senders goroutines for d, each issuing its next
// request as soon as the previous one returns.
func closedLoop(senders int, d time.Duration, op opFunc) closedResult {
	done := make([]int, senders)
	stamps := make([][]time.Duration, senders)
	ok := make([][]bool, senders)
	var bad atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				err := op(s, seq)
				if err != nil {
					bad.Add(1)
				}
				done[s]++
				stamps[s] = append(stamps[s], time.Since(start))
				ok[s] = append(ok[s], err == nil)
			}
		}(s)
	}
	wg.Wait()
	return closedResult{done: done, stamps: stamps, ok: ok, failed: int(bad.Load()), secs: time.Since(start).Seconds()}
}

// total is the number of requests completed.
func (c closedResult) total() int { return sum(c.done) }

// openResult is what an open-loop phase measured.
type openResult struct {
	lat     [][]float64 // per sender: latency of each request, ms from its scheduled send time
	late    []float64   // every request: ms between its scheduled and actual send time
	backlog int         // most requests due but not yet sent, at any send
	failed  int
	sent    int
}

// timerSlack is how early a sender may send a request. The runtime
// wakes a sleeper up to about a millisecond late, which at these rates
// would make the generator itself late on most requests; so a sender
// sleeps until timerSlack before a request is due and sends it from
// then on, on time or a little early, never late because of its timer.
const timerSlack = time.Millisecond

// openLoop sends requests on a fixed schedule, request i due at
// start + i/rate, for d. Request i belongs to sender i mod senders, which
// sends its requests in order, each when due (see timerSlack) or as
// soon as it is free. Latency runs from the due time, not the send time,
// when the request went out late, so a stall is charged to every
// request scheduled behind it rather than hidden by the generator
// slowing down (coordinated omission); a request sent early is timed
// from its send.
func openLoop(senders int, rate float64, d time.Duration, op opFunc) openResult {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	if total < senders {
		total = senders
	}
	res := openResult{lat: make([][]float64, senders)}
	lates := make([][]float64, senders)
	var started atomic.Int64
	var backlog atomic.Int64
	var bad atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i, seq := s, 0; i < total; i, seq = i+senders, seq+1 {
				due := start.Add(time.Duration(i) * interval)
				if w := time.Until(due) - timerSlack; w > 0 {
					time.Sleep(w)
				}
				now := time.Now()
				from := due
				if now.Before(due) {
					from = now
				}
				n := started.Add(1)
				dueNow := int64(now.Sub(start)/interval) + 1
				if dueNow > int64(total) {
					dueNow = int64(total)
				}
				for b := dueNow - n; ; {
					cur := backlog.Load()
					if b <= cur || backlog.CompareAndSwap(cur, b) {
						break
					}
				}
				lates[s] = append(lates[s], millis(max(now.Sub(due), 0)))
				if err := op(s, seq); err != nil {
					bad.Add(1)
				}
				res.lat[s] = append(res.lat[s], millisSince(from))
			}
		}(s)
	}
	wg.Wait()
	for _, l := range lates {
		res.late = append(res.late, l...)
	}
	res.backlog = int(backlog.Load())
	res.failed = int(bad.Load())
	res.sent = total
	return res
}

// all returns every latency in schedule order.
func (r openResult) all() []float64 { return r.where(func(int, int) bool { return true }) }

// where returns, in schedule order, the latencies of the requests keep
// selects by sender and the request's index among the sender's.
func (r openResult) where(keep func(s, k int) bool) []float64 {
	var out []float64
	for k := 0; ; k++ {
		more := false
		for s, l := range r.lat {
			if k < len(l) {
				more = true
				if keep(s, k) {
					out = append(out, l[k])
				}
			}
		}
		if !more {
			return out
		}
	}
}
