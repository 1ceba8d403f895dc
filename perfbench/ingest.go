package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// The ingest workload: one durable node, ten tenants across the sketch ×
// policy matrix, 512-update binary batches of Zipf items. A closed-loop
// phase measures capacity, an open-loop phase at ingestLoad of it
// measures latency, then the node is shut down and reopened on its data
// dir.

const (
	ingestBatch = 512
	ingestPool  = 2048 // generated batches; phases cycle through them

	// ingestLoad is the share of the measured capacity the open loop
	// offers. Ingest saturates both CPUs in its closed loop, and at half
	// of that a slower spell of a shared host queued enough requests to
	// move the median latency by a third between runs; at a quarter the
	// median tracks the service time.
	ingestLoad = 0.25
)

// ingestTenants hold two tenants of each sketch × policy cell, one per
// sender (tenant i belongs to sender i mod 2), so both senders drive the
// same mix and the open loop's even split across senders matches the
// closed loop's. See ingestTenant for each cell's share of the batches.
var ingestTenants = []tenantDef{
	{"cs-0", server.TenantSpec{Sketch: "countsketch"}},
	{"cs-1", server.TenantSpec{Sketch: "countsketch"}},
	{"f2-0", server.TenantSpec{Sketch: "f2"}},
	{"f2-1", server.TenantSpec{Sketch: "f2"}},
	{"kmv-0", server.TenantSpec{Sketch: "kmv"}},
	{"kmv-1", server.TenantSpec{Sketch: "kmv"}},
	{"f2-paths-0", server.TenantSpec{Sketch: "f2", Policy: "paths", FlipBudget: 1024}},
	{"f2-paths-1", server.TenantSpec{Sketch: "f2", Policy: "paths", FlipBudget: 1024}},
	{"f2-ring-0", ringF2},
	{"f2-ring-1", ringF2},
}

// ringF2 is sized down from the server defaults (ε 0.2, n 2^32), whose
// ring ensemble holds hundreds of MB per tenant.
var ringF2 = server.TenantSpec{Sketch: "f2", Policy: "ring", Eps: 0.4, N: universe, Shards: 2}

// ingestCycle is the per-sender cycle of batches over the cells: the
// static cells and f2/paths take turns, and f2/ring takes one batch in
// the cycle. A ring update costs about 25 static ones (it updates every
// copy in the ring), so at an equal share the ring tenants alone would
// set the node's capacity and its latency tail.
const ingestCycle = 32

// ingestTenant is the tenant of pool batch j: sender j mod senders, cell
// by the batch's place in the sender's cycle.
func ingestTenant(j, senders int) int {
	s, k := j%senders, (j/senders)%ingestCycle
	cell := k % 4 // countsketch, f2, kmv, f2/paths
	if k == ingestCycle-1 {
		cell = 4 // f2/ring
	}
	return 2*cell + s
}

// ingestInputs are the generated batches; batch j goes to tenant
// ingestTenant(j, senders).
type ingestInputs struct {
	batches [][]client.Update
	tenant  []int
	digest  string
}

func genIngest(seed int64, senders int) *ingestInputs {
	z := newZipf(seed, 1)
	in := &ingestInputs{batches: make([][]client.Update, ingestPool), tenant: make([]int, ingestPool)}
	var d digest
	for j := range in.batches {
		in.batches[j] = z.batchOf(ingestBatch)
		in.tenant[j] = ingestTenant(j, senders)
		d.u64(uint64(in.tenant[j]))
		d.updates(in.batches[j])
	}
	in.digest = d.sum()
	return in
}

func ingestConfig(dir string) server.Config {
	return server.Config{DataDir: dir, Fsync: fsyncPolicy, Seed: algoSeed, MaxKeys: 64}
}

// bootIngest opens a durable node on dir and declares the tenants.
func bootIngest(ctx context.Context, r *run, dir string) (*node, *client.Client, error) {
	n, err := listen()
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.Open(ingestConfig(dir))
	if err != nil {
		_ = n.stop()
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	n.srv = srv
	n.serve(srv.Handler())
	c := client.New(n.url, newHTTPClient(r.senders))
	if err := createTenants(ctx, c, ingestTenants); err != nil {
		_ = n.stop()
		return nil, nil, err
	}
	return n, c, nil
}

// ingestSender issues batches from the pool: sender s owns the tenants
// congruent to s modulo the sender count and cycles through their
// batches, counting acknowledgements per batch for the truth.
type ingestSender struct {
	in     *ingestInputs
	c      *client.Client
	stride int
	cursor []int
	acked  []int   // per pool batch; each entry written by its one sender
	tr     *tracer // nil when untraced
}

func newIngestSender(in *ingestInputs, c *client.Client, senders int) *ingestSender {
	is := &ingestSender{in: in, c: c, stride: senders, cursor: make([]int, senders), acked: make([]int, len(in.batches))}
	for s := range is.cursor {
		is.cursor[s] = s
	}
	return is
}

func (is *ingestSender) send(ctx context.Context, s int) error {
	j := is.cursor[s]
	is.cursor[s] = (j + is.stride) % len(is.in.batches)
	t := is.tr.now()
	if err := is.c.Update(ctx, ingestTenants[is.in.tenant[j]].key, is.in.batches[j]); err != nil {
		return err
	}
	is.tr.rec("client.update_rtt_us", j, t, 1)
	is.acked[j]++
	return nil
}

// truths rebuilds each tenant's exact stream from the acknowledged
// batches.
func (is *ingestSender) truths() []*truth {
	ts := make([]*truth, len(ingestTenants))
	for i := range ts {
		ts[i] = newTruth()
	}
	for j, k := range is.acked {
		for _, u := range is.in.batches[j] {
			ts[is.in.tenant[j]].add(u.Item, u.Delta*int64(k))
		}
	}
	return ts
}

func runIngest(r *run) error {
	ctx := context.Background()
	in := genIngest(r.seed, r.senders)
	emit(map[string]any{"inputs_digest": in.digest})
	type booted struct {
		n   *node
		c   *client.Client
		dir string
	}
	sys, setup, err := bootMedian(setupRepeats, func(i int) (booted, error) {
		dir := filepath.Join(r.dir, fmt.Sprintf("ingest-%d", i))
		n, c, err := bootIngest(ctx, r, dir)
		return booted{n, c, dir}, err
	}, func(b booted) error { return b.n.stop() })
	if err != nil {
		return err
	}
	n, c, dir := sys.n, sys.c, sys.dir
	stopped := false
	defer func() {
		if !stopped {
			_ = n.stop()
		}
	}()
	r.res.set("setup_s", setup, "s")

	is := newIngestSender(in, c, r.senders)
	send := func(s, _ int) error { return is.send(ctx, s) }
	// Two thirds of the run measure capacity, the result line's figure.
	closedD := r.measured() * 2 / 3

	// Warm connections and caches; counted as operations, not timed.
	cl := closedLoop(r.senders, 500*time.Millisecond, send)
	r.res.ops(cl.total(), cl.failed)

	cl = closedLoop(r.senders, closedD, send)
	r.res.ops(cl.total(), cl.failed)
	rates := windowRates(cl.stamps, closedD, func(s, k int) float64 {
		if cl.ok[s][k] {
			return ingestBatch
		}
		return 0
	})
	r.res.rate("updates_per_s", rates)
	capacity := median(rates) / ingestBatch // batches per second
	r.res.set("updates_per_s_mean", float64((cl.total()-cl.failed)*ingestBatch)/cl.secs, "1/s")

	rate := capacity * ingestLoad
	ol := openLoop(r.senders, rate, r.measured()-closedD, send)
	r.res.ops(ol.sent, ol.failed)
	r.res.set("offered_batches_per_s", rate, "1/s")
	r.res.lat("write", ol.all())
	reportGen(r.res, ol)

	// Every estimate must sit in its tenant's envelope around the exact
	// truth, and no robust tenant may have spent its flip budget.
	truths := is.truths()
	before, err := checkEstimates(ctx, r.res, c, truths)
	if err != nil {
		return err
	}
	r.res.set("heap_mb", heapMB(), "MB")

	stopped = true
	if err := n.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	recov, err := reopenIngest(ctx, r, dir, before)
	if err != nil {
		return err
	}
	r.res.set("recovery_s", recov, "s")
	return nil
}

// checkEstimates reads every tenant's estimate with one query batch and
// checks it against truth; it returns the estimates for the
// bit-identical check after reopen.
func checkEstimates(ctx context.Context, res *result, c *client.Client, truths []*truth) ([]float64, error) {
	out := make([]float64, len(ingestTenants))
	for i, t := range ingestTenants {
		info, err := server.InfoForSpec(t.spec)
		if err != nil {
			return nil, err
		}
		res.ops(1, 0)
		resp, err := c.Query(ctx, t.key, []client.Query{{Kind: server.QueryEstimate}})
		if err != nil {
			res.violated("%s: estimate query failed: %v", t.key, err)
			continue
		}
		a := resp.Answers[0]
		want := info.Truth(truths[i].freq())
		res.check(within(a.Value, want, a.ErrorBound), "%s: estimate %.6g outside 1±%.2g of truth %.6g", t.key, a.Value, a.ErrorBound, want)
		if resp.Robustness != nil {
			res.check(!resp.Robustness.Exhausted, "%s: flip budget exhausted (%d switches of %d)", t.key, resp.Robustness.Switches, resp.Robustness.Budget)
		}
		out[i] = a.Value
	}
	return out, nil
}

// within reports whether est is inside the relative envelope 1±eps
// around truth.
func within(est, truth, eps float64) bool {
	return math.Abs(est-truth) <= eps*math.Abs(truth)
}

// reopenIngest reopens the node on dir, times server.Open (WAL replay
// and checkpoint restore) and checks every estimate is bit-identical to
// the one read before shutdown.
func reopenIngest(ctx context.Context, r *run, dir string, before []float64) (float64, error) {
	n, err := listen()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	srv, err := server.Open(ingestConfig(dir))
	if err != nil {
		_ = n.stop()
		return 0, fmt.Errorf("reopen: %w", err)
	}
	secs := time.Since(t0).Seconds()
	n.srv = srv
	n.serve(srv.Handler())
	c := client.New(n.url, newHTTPClient(1))
	for i, t := range ingestTenants {
		r.res.ops(1, 0)
		resp, err := c.Query(ctx, t.key, []client.Query{{Kind: server.QueryEstimate}})
		if err != nil {
			r.res.violated("%s: estimate after reopen failed: %v", t.key, err)
			continue
		}
		got := resp.Answers[0].Value
		r.res.check(math.Float64bits(got) == math.Float64bits(before[i]),
			"%s: estimate %v after reopen, %v before shutdown", t.key, got, before[i])
	}
	return secs, n.stop()
}

// reportGen reports how far the open-loop generator fell behind.
func reportGen(res *result, ol openResult) {
	late := append([]float64(nil), ol.late...)
	sort.Float64s(late)
	res.set("gen.late_p99_ms", quantile(late, math.Min(99, maxPct(len(late)))), "ms")
	res.set("gen.backlog_max", float64(ol.backlog), "count")
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// traceIngest is the traced run: the live node's closed loop untraced
// and traced (for the tracing overhead and the client round trips), a
// traced open loop (for the generator checks), then the layer replay of
// the first pool batches and the final estimate reads.
func traceIngest(r *run) error {
	ctx := context.Background()
	in := genIngest(r.seed, r.senders)
	emit(map[string]any{"inputs_digest": in.digest})
	n, c, err := bootIngest(ctx, r, filepath.Join(r.dir, "live"))
	if err != nil {
		return err
	}
	defer n.stop()
	tr := newTracer()
	is := newIngestSender(in, c, r.senders)
	send := func(s, _ int) error { return is.send(ctx, s) }
	d := r.measured() / 4
	cl := closedLoop(r.senders, 500*time.Millisecond, send)
	r.res.ops(cl.total(), cl.failed)
	cl = closedLoop(r.senders, d, send)
	r.res.ops(cl.total(), cl.failed)
	untraced := float64(cl.total()) / cl.secs
	is.tr = tr
	cl = closedLoop(r.senders, d, send)
	r.res.ops(cl.total(), cl.failed)
	overhead(r.res, float64(cl.total())/cl.secs, untraced)
	ol := openLoop(r.senders, untraced*ingestLoad, d, send)
	r.res.ops(ol.sent, ol.failed)
	reportGen(r.res, ol)
	if _, err := checkEstimates(ctx, r.res, c, is.truths()); err != nil {
		return err
	}

	rs := replaySet{tenants: ingestTenants, cfg: ingestConfig(filepath.Join(r.dir, "replay")), flushEvery: 16}
	for j := 0; j < ingestPool/2; j++ {
		rs.reqs = append(rs.reqs, replayReq{tenant: in.tenant[j], ups: toWire(in.batches[j])})
	}
	for t := range ingestTenants {
		rs.reqs = append(rs.reqs, replayReq{tenant: t})
	}
	if err := replayLayers(tr, r.res, rs, r.dir); err != nil {
		return err
	}
	reportClient(tr, r.res)
	return finishTrace(r, tr)
}
