package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// The mixed workload: 90% update batches and 10% query batches against a
// 3-node R=2 cluster of durable nodes with the ship loop running. Writes
// go to the tenant's owner; reads go to a random node, so two in three
// pay the non-owner's 307 hop. A closed-loop phase of the mix measures
// capacity and an open-loop phase at half of it measures latency.

const (
	mixedNodes     = 3
	mixedPreload   = 200_000 // Zipf updates per tenant before the run
	mixedBatch     = 256     // updates per write request
	mixedPool      = 8192    // generated requests; phases cycle through them
	mixedReadShare = 0.10
	mixedPoints    = 16
	mixedTopK      = 10
	shipInterval   = 500 * time.Millisecond
)

// mixedTenants: tenant t belongs to sender t mod 2, so the ring tenant
// shares sender 1 with cs-1.
var mixedTenants = []tenantDef{
	{"cs-0", server.TenantSpec{Sketch: "countsketch"}},
	{"cs-1", server.TenantSpec{Sketch: "countsketch"}},
	{"cs-2", server.TenantSpec{Sketch: "countsketch"}},
	{"cs-ring", server.TenantSpec{Sketch: "countsketch", Policy: "ring", Eps: 0.4, N: universe, Shards: 2}},
}

// mixedReq is one generated request: a write batch, or a query batch
// (estimate, points, top-k) sent to node.
type mixedReq struct {
	tenant int
	ups    []client.Update // nil for a read
	node   int
	points []uint64
}

type mixedInputs struct {
	preload [][]client.Update // per tenant, in mixedBatch-sized writes
	reqs    []mixedReq
	digest  string
}

// mixedRingShare is the share of its sender's writes the ring tenant
// takes. A countsketch/ring update costs about 40 static ones, so at an
// equal share the ring tenant alone would set the cluster's capacity.
const mixedRingShare = 1.0 / 8

// genMixed draws the preload and the request pool. Request i belongs to
// sender i mod 2 and targets one of that sender's two tenants: evenly
// for reads and for sender 0's writes; the ring tenant, on sender 1,
// takes mixedRingShare of that sender's writes.
func genMixed(seed int64, senders int) *mixedInputs {
	z := newZipf(seed, 2)
	pick := rng(seed, 3)
	in := &mixedInputs{preload: make([][]client.Update, len(mixedTenants)), reqs: make([]mixedReq, mixedPool)}
	var d digest
	for t := range mixedTenants {
		in.preload[t] = z.batchOf(mixedPreload)
		d.updates(in.preload[t])
	}
	perSender := len(mixedTenants) / senders
	for i := range in.reqs {
		q := mixedReq{tenant: i%senders + senders*pick.Intn(perSender)}
		read := pick.Float64() < mixedReadShare
		if !read && mixedTenants[q.tenant].spec.Policy != "" && pick.Float64() >= mixedRingShare*float64(perSender) {
			q.tenant = i % senders // the sender's first tenant, a static one
		}
		if read {
			q.node = pick.Intn(mixedNodes)
			q.points = make([]uint64, mixedPoints)
			for k := range q.points {
				q.points[k] = z.next()
			}
			d.u64(uint64(q.tenant), 1, uint64(q.node))
			d.u64(q.points...)
		} else {
			q.ups = z.batchOf(mixedBatch)
			d.u64(uint64(q.tenant), 0)
			d.updates(q.ups)
		}
		in.reqs[i] = q
	}
	in.digest = d.sum()
	return in
}

// mixedCluster is a booted cluster with a client per node.
type mixedCluster struct {
	nodes   []*node
	clients []*client.Client
	owner   []int // per tenant: index of its owning node
}

func (mc *mixedCluster) stop() error {
	var first error
	for _, n := range mc.nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// bootMixed boots the cluster on dir, declares the tenants at their
// owners, preloads them and runs one synchronous ship round on every
// node, so replicas hold the preloaded state when it returns.
func bootMixed(ctx context.Context, r *run, in *mixedInputs, dir string) (*mixedCluster, error) {
	mc := &mixedCluster{}
	urls := make([]string, mixedNodes)
	for i := range urls {
		n, err := listen()
		if err != nil {
			_ = mc.stop()
			return nil, err
		}
		mc.nodes = append(mc.nodes, n)
		urls[i] = n.url
	}
	hc := newHTTPClient(r.senders)
	for i, n := range mc.nodes {
		srv, err := server.Open(server.Config{
			DataDir: filepath.Join(dir, fmt.Sprintf("node-%d", i)), Fsync: fsyncPolicy,
			Seed: algoSeed, MaxKeys: 64,
		})
		if err != nil {
			_ = mc.stop()
			return nil, fmt.Errorf("open node %d: %w", i, err)
		}
		n.srv = srv
		cl, err := cluster.New(srv, cluster.Config{
			Self: urls[i], Peers: urls, Replicas: 2, Forward: true,
			ShipInterval: shipInterval, ProbeInterval: 250 * time.Millisecond,
		})
		if err != nil {
			_ = mc.stop()
			return nil, err
		}
		n.cl = cl
		mc.clients = append(mc.clients, client.New(urls[i], hc))
	}
	for _, n := range mc.nodes {
		n.serve(n.cl.Handler())
		n.cl.Start()
	}
	for _, t := range mixedTenants {
		o := slices.Index(urls, mc.nodes[0].cl.Owner(t.key))
		mc.owner = append(mc.owner, o)
		if _, err := mc.clients[o].CreateTenant(ctx, t.key, t.spec); err != nil {
			_ = mc.stop()
			return nil, fmt.Errorf("create %s: %w", t.key, err)
		}
	}
	// Each sender preloads its own tenants at their owners.
	var failed atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < r.senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for t := s; t < len(mixedTenants); t += r.senders {
				for off := 0; off < mixedPreload; off += mixedBatch {
					ups := in.preload[t][off:min(off+mixedBatch, mixedPreload)]
					if err := mc.clients[mc.owner[t]].Update(ctx, mixedTenants[t].key, ups); err != nil {
						failed.Add(1)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		_ = mc.stop()
		return nil, fmt.Errorf("preload: %d batches failed", n)
	}
	for _, n := range mc.nodes {
		n.cl.ShipNow()
	}
	return mc, nil
}

// mixedOp is one executed request and, for a read, its answer.
type mixedOp struct {
	req  int
	ok   bool
	resp *server.QueryResponse
}

// mixedSender issues pool requests; sender s takes requests congruent to
// s and logs each, in order, for the truth replay.
type mixedSender struct {
	in     *mixedInputs
	mc     *mixedCluster
	stride int
	cursor []int
	log    [][]mixedOp
	tr     *tracer // nil when untraced
}

func (ms *mixedSender) send(ctx context.Context, s int) error {
	i := ms.cursor[s]
	ms.cursor[s] = (i + ms.stride) % len(ms.in.reqs)
	q := &ms.in.reqs[i]
	op := mixedOp{req: i}
	var err error
	key := mixedTenants[q.tenant].key
	t := ms.tr.now()
	if q.ups != nil {
		err = ms.mc.clients[ms.mc.owner[q.tenant]].Update(ctx, key, q.ups)
		ms.tr.rec("client.update_rtt_us", i, t, 1)
	} else {
		qs := make([]client.Query, 0, 2+len(q.points))
		qs = append(qs, client.Query{Kind: server.QueryEstimate})
		for _, p := range q.points {
			qs = append(qs, client.Query{Kind: server.QueryPoint, Item: server.U64(p)})
		}
		qs = append(qs, client.Query{Kind: server.QueryTopK, K: mixedTopK})
		op.resp, err = ms.mc.clients[q.node].Query(ctx, key, qs)
		ms.tr.rec("client.query_rtt_us", i, t, 1)
	}
	op.ok = err == nil
	ms.log[s] = append(ms.log[s], op)
	return err
}

func newMixedSender(in *mixedInputs, mc *mixedCluster, senders int) *mixedSender {
	ms := &mixedSender{in: in, mc: mc, stride: senders, cursor: make([]int, senders), log: make([][]mixedOp, senders)}
	for s := range ms.cursor {
		ms.cursor[s] = s
	}
	return ms
}

func runMixed(r *run) error {
	ctx := context.Background()
	if len(mixedTenants)%r.senders != 0 {
		return fmt.Errorf("%d tenants do not split over %d senders", len(mixedTenants), r.senders)
	}
	in := genMixed(r.seed, r.senders)
	emit(map[string]any{"inputs_digest": in.digest})
	mc, setup, err := bootMedian(setupRepeatsMixed, func(i int) (*mixedCluster, error) {
		return bootMixed(ctx, r, in, filepath.Join(r.dir, fmt.Sprintf("mixed-%d", i)))
	}, (*mixedCluster).stop)
	if err != nil {
		return err
	}
	defer mc.stop()
	r.res.set("setup_s", setup, "s")

	ms := newMixedSender(in, mc, r.senders)
	send := func(s, _ int) error { return ms.send(ctx, s) }
	closedD := r.measured() / 2

	cl := closedLoop(r.senders, 500*time.Millisecond, send)
	r.res.ops(cl.total(), cl.failed)

	mark := logLens(ms.log)
	cl = closedLoop(r.senders, closedD, send)
	r.res.ops(cl.total(), cl.failed)
	isRead := ms.kinds(mark)
	r.res.rate("updates_per_s", windowRates(cl.stamps, closedD, func(s, k int) float64 {
		if isRead(s, k) || !ms.log[s][mark[s]+k].ok {
			return 0
		}
		return mixedBatch
	}))
	r.res.rate("queries_per_s", windowRates(cl.stamps, closedD, func(s, k int) float64 {
		if isRead(s, k) && ms.log[s][mark[s]+k].ok {
			return 1
		}
		return 0
	}))

	// The mix is fixed per sender, so it is sustainable only up to the
	// slowest sender's pace on every sender.
	rate := float64(r.senders*slices.Min(cl.done)) / cl.secs / 2
	mark = logLens(ms.log)
	ol := openLoop(r.senders, rate, r.measured()-closedD, send)
	r.res.ops(ol.sent, ol.failed)
	r.res.set("offered_requests_per_s", rate, "1/s")
	isRead = ms.kinds(mark)
	r.res.lat("write", ol.where(func(s, k int) bool { return !isRead(s, k) }))
	r.res.lat("read", ol.where(isRead))
	reportGen(r.res, ol)
	r.res.set("heap_mb", heapMB(), "MB")
	return verifyMixed(r.res, in, ms.log)
}

func logLens(log [][]mixedOp) []int {
	out := make([]int, len(log))
	for s := range log {
		out[s] = len(log[s])
	}
	return out
}

// kinds reports, for the k-th request sender s logged after mark,
// whether it was a read.
func (ms *mixedSender) kinds(mark []int) func(s, k int) bool {
	return func(s, k int) bool { return ms.in.reqs[ms.log[s][mark[s]+k].req].ups == nil }
}

// verifyMixed replays each sender's log in order over the exact truth of
// its tenants (each tenant has one sender, so the log order is the
// order the owner applied them) and checks every answer: the estimate
// and every point inside the reported envelope, the true top 3 in the
// top-k answer, and no robust tenant out of flip budget.
func verifyMixed(res *result, in *mixedInputs, log [][]mixedOp) error {
	truths := make([]*truth, len(mixedTenants))
	stats := make([]func(*truth) float64, len(mixedTenants))
	for t, def := range mixedTenants {
		truths[t] = newTruth()
		truths[t].addAll(in.preload[t])
		if def.spec.Policy == "" {
			stats[t] = func(tr *truth) float64 { return float64(tr.f2) } // the F2 moment
		} else {
			stats[t] = func(tr *truth) float64 { return math.Sqrt(float64(tr.f2)) } // the L2 norm
		}
	}
	for _, ops := range log {
		for _, op := range ops {
			q := &in.reqs[op.req]
			tr := truths[q.tenant]
			key := mixedTenants[q.tenant].key
			switch {
			case !op.ok:
				continue
			case q.ups != nil:
				tr.addAll(q.ups)
				continue
			}
			checkAnswer(res, key, q, op.resp, tr, stats[q.tenant](tr))
		}
	}
	for t, def := range mixedTenants {
		info, err := server.InfoForSpec(def.spec)
		if err != nil {
			return err
		}
		if ref, got := info.Truth(truths[t].freq()), stats[t](truths[t]); !within(got, ref, 1e-9) {
			return fmt.Errorf("%s: harness truth %.9g disagrees with the tenant's truth function %.9g", def.key, got, ref)
		}
	}
	return nil
}

// checkAnswer checks one query batch's answers; a batch with any wrong
// answer is one failed operation.
func checkAnswer(res *result, key string, q *mixedReq, resp *server.QueryResponse, tr *truth, want float64) {
	if msg := wrongAnswer(q, resp, tr, want); msg != "" {
		res.violated("%s: %s", key, msg)
	}
}

// wrongAnswer describes the first wrong answer in a query batch, or
// returns "".
func wrongAnswer(q *mixedReq, resp *server.QueryResponse, tr *truth, want float64) string {
	if len(resp.Answers) != 2+len(q.points) {
		return fmt.Sprintf("%d answers to %d queries", len(resp.Answers), 2+len(q.points))
	}
	if est := resp.Answers[0]; !within(est.Value, want, est.ErrorBound) {
		return fmt.Sprintf("estimate %.6g outside 1±%.2g of truth %.6g", est.Value, est.ErrorBound, want)
	}
	for k, p := range q.points {
		a := resp.Answers[1+k]
		if f := float64(tr.counts[p]); math.Abs(a.Value-f) > a.ErrorBound {
			return fmt.Sprintf("point %d = %.6g, truth %.0f, bound %.6g", p, a.Value, f, a.ErrorBound)
		}
	}
	topk := resp.Answers[1+len(q.points)]
	for _, item := range tr.top {
		if !slices.ContainsFunc(topk.Items, func(iw server.ItemWeight) bool { return uint64(iw.Item) == item }) {
			return fmt.Sprintf("true heavy item %d (count %d) missing from top-%d", item, tr.counts[item], mixedTopK)
		}
	}
	if resp.Robustness != nil && resp.Robustness.Exhausted {
		return "flip budget exhausted"
	}
	return ""
}

// traceMixed is the traced run: the mix's closed loop untraced and
// traced (for the tracing overhead and the client round trips), a traced
// open loop (for the generator checks), the cluster's own calls, then
// the layer replay of the first pool requests over the preloaded
// tenants.
func traceMixed(r *run) error {
	ctx := context.Background()
	if len(mixedTenants)%r.senders != 0 {
		return fmt.Errorf("%d tenants do not split over %d senders", len(mixedTenants), r.senders)
	}
	in := genMixed(r.seed, r.senders)
	emit(map[string]any{"inputs_digest": in.digest})
	mc, err := bootMixed(ctx, r, in, filepath.Join(r.dir, "live"))
	if err != nil {
		return err
	}
	defer mc.stop()
	tr := newTracer()
	ms := newMixedSender(in, mc, r.senders)
	send := func(s, _ int) error { return ms.send(ctx, s) }
	d := r.measured() / 4
	cl := closedLoop(r.senders, 500*time.Millisecond, send)
	r.res.ops(cl.total(), cl.failed)
	cl = closedLoop(r.senders, d, send)
	r.res.ops(cl.total(), cl.failed)
	untraced := float64(cl.total()) / cl.secs
	rate := float64(r.senders*slices.Min(cl.done)) / cl.secs / 2
	ms.tr = tr
	cl = closedLoop(r.senders, d, send)
	r.res.ops(cl.total(), cl.failed)
	overhead(r.res, float64(cl.total())/cl.secs, untraced)
	ol := openLoop(r.senders, rate, d, send)
	r.res.ops(ol.sent, ol.failed)
	reportGen(r.res, ol)
	if err := traceCluster(ctx, tr, r.res, mc); err != nil {
		return err
	}
	if err := verifyMixed(r.res, in, ms.log); err != nil {
		return err
	}

	rs := replaySet{
		tenants: mixedTenants,
		cfg:     server.Config{DataDir: filepath.Join(r.dir, "replay"), Fsync: fsyncPolicy, Seed: algoSeed, MaxKeys: 64},
	}
	for _, p := range in.preload {
		rs.preload = append(rs.preload, toWire(p))
	}
	for _, q := range in.reqs[:mixedPool/8] {
		rq := replayReq{tenant: q.tenant, points: q.points}
		if q.ups != nil {
			rq.ups = toWire(q.ups)
		} else {
			rq.topk = mixedTopK
		}
		rs.reqs = append(rs.reqs, rq)
	}
	if err := replayLayers(tr, r.res, rs, r.dir); err != nil {
		return err
	}
	reportClient(tr, r.res)
	return finishTrace(r, tr)
}

// traceCluster times the cluster's own work on the live cluster: ship
// rounds, shipment size and apply, the non-owner's redirect, and how far
// replicas trail their owners.
func traceCluster(ctx context.Context, tr *tracer, res *result, mc *mixedCluster) error {
	for k := 0; k < 3; k++ {
		for i, n := range mc.nodes {
			t := tr.now()
			n.cl.ShipNow()
			tr.rec("cluster.ship_round_ms", i, t, 1)
		}
	}
	res.set("cluster.ship_round_ms", tr.med("cluster.ship_round_ms")/1e6, "ms")

	shipBytes := 0
	apply := server.New(server.Config{Seed: algoSeed})
	defer apply.Drain()
	for t, def := range mixedTenants {
		sh, err := mc.nodes[mc.owner[t]].srv.ShipTenant(def.key)
		if err != nil {
			return err
		}
		shipBytes += len(sh.Spec) + len(sh.State)
		for k := 0; k < 5; k++ {
			s := tr.now()
			if err := apply.ApplyShipment(def.key, sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
				return fmt.Errorf("apply shipment %s: %w", def.key, err)
			}
			tr.rec("cluster.apply_shipment_us", t, s, 1)
		}
	}
	res.set("cluster.ship_bytes", float64(shipBytes), "B")
	res.set("cluster.apply_shipment_us", tr.med("cluster.apply_shipment_us")/1e3, "us")

	// The same estimate read at the owner and at a non-owner.
	var extra []float64
	for t, def := range mixedTenants {
		other := (mc.owner[t] + 1) % mixedNodes
		var lat [2][]float64
		for k := 0; k < 40; k++ {
			for j, n := range []int{mc.owner[t], other} {
				t0 := time.Now()
				res.ops(1, 0)
				if _, err := mc.clients[n].Query(ctx, def.key, []client.Query{{Kind: server.QueryEstimate}}); err != nil {
					res.violated("%s: estimate via node %d: %v", def.key, n, err)
				}
				lat[j] = append(lat[j], float64(time.Since(t0).Nanoseconds()))
			}
		}
		extra = append(extra, median(lat[1])-median(lat[0]))
	}
	res.set("cluster.forward_extra_us", median(extra)/1e3, "us")

	// Replica lag: the owner's mass minus the replica's, in updates, over
	// the static tenants (robust ones ship their declaration only).
	mass := make([]map[string]int64, len(mc.nodes))
	for i, c := range mc.clients {
		st, err := c.Stats(ctx)
		if err != nil {
			return fmt.Errorf("stats node %d: %w", i, err)
		}
		mass[i] = map[string]int64{}
		for _, ks := range st.Tenants {
			mass[i][ks.Key] = ks.Mass
		}
	}
	lag := int64(0)
	for t, def := range mixedTenants {
		if def.spec.Policy != "" {
			continue
		}
		for i := range mc.nodes {
			if m, ok := mass[i][def.key]; ok && i != mc.owner[t] {
				lag = max(lag, mass[mc.owner[t]][def.key]-m)
			}
		}
	}
	res.set("cluster.replica_lag_updates", float64(lag), "count")
	return nil
}
