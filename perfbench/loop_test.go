package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToRequestsBehindIt stalls one request of an
// open-loop run against a real HTTP handler. The requests scheduled
// during the stall must carry the wait in their latencies, because
// latency runs from the scheduled send time; a generator that timed from
// the actual send would report them as fast.
func TestOpenLoopChargesStallToRequestsBehindIt(t *testing.T) {
	const (
		rate  = 1000.0 // requests per second
		stall = 200 * time.Millisecond
	)
	var n atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 100 {
			time.Sleep(stall)
		}
	}))
	defer hs.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	op := func(_, _ int) error {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, hs.URL, nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	res := openLoop(1, rate, time.Second, op)
	if res.failed != 0 {
		t.Fatalf("%d requests failed", res.failed)
	}
	lat := res.all()
	slow := 0
	for _, l := range lat {
		if l >= 50 {
			slow++
		}
	}
	// The stalled request and those due in the stall's first 150ms all
	// waited at least 50ms past their due time.
	if slow < 140 {
		t.Errorf("%d of %d requests saw ≥ 50ms; the %v stall should charge about %d", slow, len(lat), stall, int(rate*0.15))
	}
	if s := summarize(lat, 99); s.Tail < 150 {
		t.Errorf("p99 latency %.1fms, want ≥ 150ms from the stall", s.Tail)
	}
	if res.backlog < 150 {
		t.Errorf("backlog max %d, want ≥ 150 requests due during the stall", res.backlog)
	}
	late := summarize(res.late, 99)
	if late.Tail < 100 {
		t.Errorf("generator late p99 %.1fms, want ≥ 100ms", late.Tail)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	cl := closedLoop(2, 50*time.Millisecond, func(s, seq int) error {
		time.Sleep(time.Millisecond)
		if seq%2 == 1 {
			return context.Canceled
		}
		return nil
	})
	total := cl.total()
	if total < 20 || cl.failed < total/2-2 || cl.failed > total/2+2 {
		t.Errorf("done %v failed %d, want about half failed", cl.done, cl.failed)
	}
	if len(cl.stamps[0]) != cl.done[0] || len(cl.stamps[1]) != cl.done[1] {
		t.Errorf("stamps %d+%d for %v requests", len(cl.stamps[0]), len(cl.stamps[1]), cl.done)
	}
}
