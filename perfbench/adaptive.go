package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/fp"
	"repro/internal/game"
	"repro/internal/server"
)

// The adaptive workload: the paper's game over the wire. Two closed-loop
// adversaries, each on its own robust tenant of one in-memory node, play
// rounds of write (the adversary's chosen update), read (the published
// estimate), choose. Algorithm 3 attacks f2/ring; the deletion pump
// attacks a turnstile f2/paths tenant.

const (
	// adaptiveWarmup rounds are not held to the ε envelope: on a stream
	// of a few updates the estimate's granularity exceeds ε of the truth.
	adaptiveWarmup = 64

	// pumpRounds bounds the pump campaign and is the turnstile tenant's
	// declared flip bound λ; no run gets near it.
	pumpRounds = 1 << 18

	// amsC is Algorithm 3's constant C.
	amsC = 4
)

// game is one adversary against one tenant.
type gameDef struct {
	key  string
	spec server.TenantSpec
	adv  func(seed int64) game.Adversary
	stat func(t *truth) float64 // the statistic the tenant publishes, from exact truth
}

var adaptiveGames = []gameDef{
	{
		key:  "ams-ring",
		spec: server.TenantSpec{Sketch: "f2", Policy: "ring", Eps: 0.3, N: 1 << 24, Shards: 1},
		adv: func(seed int64) game.Adversary {
			// Tuned to the sketch size an attacker reads off the published ε.
			sz := fp.SizeF2(0.3, 0.05)
			return adversary.NewAMSAttack(sz.Rows*sz.Width, amsC, seed)
		},
		stat: func(t *truth) float64 { return math.Sqrt(float64(t.f2)) },
	},
	{
		key:  "pump-paths",
		spec: server.TenantSpec{Sketch: "f2", Policy: "paths", Model: "turnstile", Lambda: pumpRounds, Eps: 0.3, Shards: 1},
		adv: func(seed int64) game.Adversary {
			return adversary.NewPump(pumpRounds, math.Inf(1), seed)
		},
		stat: func(t *truth) float64 { return float64(t.f2) },
	},
}

func adaptiveTenants() []tenantDef {
	ts := make([]tenantDef, len(adaptiveGames))
	for i, g := range adaptiveGames {
		ts[i] = tenantDef{g.key, g.spec}
	}
	return ts
}

// adaptiveSeeds derives each adversary's seed; they are the workload's
// whole generated input, since every update after them is chosen from
// the server's answers.
func adaptiveSeeds(seed int64) ([]int64, string) {
	var d digest
	seeds := make([]int64, len(adaptiveGames))
	for i := range seeds {
		seeds[i] = rng(seed, uint64(100+i)).Int63()
		d.u64(uint64(seeds[i]))
	}
	d.u64(pumpRounds, amsC, adaptiveWarmup)
	return seeds, d.sum()
}

func bootAdaptive(ctx context.Context, conns int) (*node, *client.Client, error) {
	n, err := listen()
	if err != nil {
		return nil, nil, err
	}
	n.srv = server.New(server.Config{Seed: algoSeed})
	n.serve(n.srv.Handler())
	c := client.New(n.url, newHTTPClient(conns))
	if err := createTenants(ctx, c, adaptiveTenants()); err != nil {
		_ = n.stop()
		return nil, nil, err
	}
	return n, c, nil
}

// campaign is what one adversary's goroutine measured.
type campaign struct {
	write, read, round []float64 // ms
	rounds, failed     int
	maxRel             float64
	bad                []string // envelope violations, first few
	violations         int
	truth              *truth
	stamps             []time.Duration // each round's completion, since the game started
	ups                []client.Update // the stream chosen, when traced
}

// play runs adversary g against its tenant until the deadline.
func play(ctx context.Context, c *client.Client, g gameDef, seed int64, start, deadline time.Time, tr *tracer) *campaign {
	adv := g.adv(seed)
	eps := g.spec.Eps
	cp := &campaign{truth: newTruth()}
	last := 0.0
	one := make([]client.Update, 1)
	for step := 0; time.Now().Before(deadline); step++ {
		u, ok := adv.Next(last, step)
		if !ok {
			break
		}
		cp.rounds++
		one[0] = client.Update{Item: u.Item, Delta: u.Delta}
		t0 := time.Now()
		s := tr.now()
		if err := c.Update(ctx, g.key, one); err != nil {
			cp.failed++
			break // the adversary's view of the stream is now wrong
		}
		tr.rec("client.update_rtt_us", step, s, 1)
		t1 := time.Now()
		s = tr.now()
		est, err := c.Estimate(ctx, g.key)
		if err != nil {
			cp.failed++
			break
		}
		tr.rec("client.estimate_rtt_us", step, s, 1)
		t2 := time.Now()
		if tr != nil {
			cp.ups = append(cp.ups, one[0])
		}
		cp.write = append(cp.write, millis(t1.Sub(t0)))
		cp.read = append(cp.read, millis(t2.Sub(t1)))
		cp.round = append(cp.round, millis(t2.Sub(t0)))
		cp.stamps = append(cp.stamps, t2.Sub(start))
		cp.truth.add(u.Item, u.Delta)
		if step >= adaptiveWarmup {
			want := g.stat(cp.truth)
			rel := math.Abs(est-want) / math.Abs(want)
			cp.maxRel = math.Max(cp.maxRel, rel)
			if !within(est, want, eps) {
				cp.violations++
				if len(cp.bad) < 5 {
					cp.bad = append(cp.bad, fmt.Sprintf("%s round %d: estimate %.6g outside 1±%.2g of truth %.6g", g.key, step+1, est, eps, want))
				}
			}
		}
		last = est
	}
	return cp
}

func runAdaptive(r *run) error {
	ctx := context.Background()
	seeds, dig := adaptiveSeeds(r.seed)
	emit(map[string]any{"inputs_digest": dig})
	type booted struct {
		n *node
		c *client.Client
	}
	sys, setup, err := bootMedian(setupRepeats, func(int) (booted, error) {
		n, c, err := bootAdaptive(ctx, len(adaptiveGames))
		return booted{n, c}, err
	}, func(b booted) error { return b.n.stop() })
	if err != nil {
		return err
	}
	n, c := sys.n, sys.c
	defer n.stop()
	r.res.set("setup_s", setup, "s")

	cps, secs := playAll(ctx, c, seeds, r.measured(), nil)
	if err := checkCampaigns(ctx, r.res, c, cps); err != nil {
		return err
	}
	var write, read, round []float64
	var stamps [][]time.Duration
	rounds := 0
	maxRel := 0.0
	for _, cp := range cps {
		write = append(write, cp.write...)
		read = append(read, cp.read...)
		round = append(round, cp.round...)
		stamps = append(stamps, cp.stamps)
		rounds += len(cp.round)
		maxRel = math.Max(maxRel, cp.maxRel)
	}
	// One update per round, so the two rates are the same figure.
	perSec := windowRates(stamps, r.measured(), func(int, int) float64 { return 1 })
	r.res.rate("rounds_per_s", perSec)
	r.res.rate("updates_per_s", perSec)
	r.res.set("rounds_per_s_mean", float64(rounds)/secs, "1/s")
	r.res.lat("round", round)
	r.res.lat("write", write)
	r.res.lat("read", read)
	r.res.set("max_rel_err", maxRel, "ratio")
	r.res.set("heap_mb", heapMB(), "MB")
	return nil
}

// playAll runs every adversary concurrently for d and returns what each
// measured and the seconds they ran.
func playAll(ctx context.Context, c *client.Client, seeds []int64, d time.Duration, tr *tracer) ([]*campaign, float64) {
	cps := make([]*campaign, len(adaptiveGames))
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for i, g := range adaptiveGames {
		wg.Add(1)
		go func(i int, g gameDef) {
			defer wg.Done()
			cps[i] = play(ctx, c, g, seeds[i], t0, deadline, tr)
		}(i, g)
	}
	wg.Wait()
	return cps, time.Since(t0).Seconds()
}

// checkCampaigns counts the campaigns' rounds and failures and checks
// each.
func checkCampaigns(ctx context.Context, res *result, c *client.Client, cps []*campaign) error {
	for i, cp := range cps {
		res.ops(cp.rounds, cp.failed)
		for _, b := range cp.bad {
			res.violated("%s", b)
		}
		if extra := cp.violations - len(cp.bad); extra > 0 {
			res.failed += extra
		}
		if err := checkCampaign(ctx, res, c, adaptiveGames[i], cp); err != nil {
			return err
		}
	}
	return nil
}

// checkCampaign cross-checks the harness's incremental truth against the
// repository's truth function and checks the tenant's flip budget holds.
func checkCampaign(ctx context.Context, res *result, c *client.Client, g gameDef, cp *campaign) error {
	info, err := server.InfoForSpec(g.spec)
	if err != nil {
		return err
	}
	if ref, got := info.Truth(cp.truth.freq()), g.stat(cp.truth); !within(got, ref, 1e-9) {
		return fmt.Errorf("%s: harness truth %.9g disagrees with the tenant's truth function %.9g", g.key, got, ref)
	}
	res.ops(1, 0)
	ks, err := c.KeyStats(ctx, g.key)
	if err != nil {
		res.violated("%s: stats failed: %v", g.key, err)
		return nil
	}
	res.check(ks.Robustness != nil && !ks.Robustness.Exhausted, "%s: robustness %+v, want a robust tenant with budget left", g.key, ks.Robustness)
	return nil
}

// adaptiveReplayRounds bounds the rounds per adversary the layer replay
// re-runs.
const adaptiveReplayRounds = 4000

// traceAdaptive is the traced run: the game untraced and then traced on
// fresh nodes (for the tracing overhead and the client round trips),
// then the layer replay of the stream each adversary chose in the traced
// game, one write and one estimate read per round.
func traceAdaptive(r *run) error {
	ctx := context.Background()
	seeds, dig := adaptiveSeeds(r.seed)
	emit(map[string]any{"inputs_digest": dig})
	d := r.measured() / 2
	tr := newTracer()
	var rates [2]float64
	var cps []*campaign
	for k, t := range []*tracer{nil, tr} {
		n, c, err := bootAdaptive(ctx, len(adaptiveGames))
		if err != nil {
			return err
		}
		var secs float64
		cps, secs = playAll(ctx, c, seeds, d, t)
		err = checkCampaigns(ctx, r.res, c, cps)
		_ = n.stop() // in-memory node: nothing to flush
		if err != nil {
			return err
		}
		for _, cp := range cps {
			rates[k] += float64(cp.rounds) / secs
		}
	}
	overhead(r.res, rates[1], rates[0])

	rs := replaySet{tenants: adaptiveTenants(), cfg: server.Config{Seed: algoSeed}}
	for g := range adaptiveGames {
		ups := toWire(cps[g].ups)
		for k := 0; k < len(ups) && k < adaptiveReplayRounds; k++ {
			rs.reqs = append(rs.reqs, replayReq{tenant: g, ups: ups[k : k+1]}, replayReq{tenant: g})
		}
	}
	if err := replayLayers(tr, r.res, rs, r.dir); err != nil {
		return err
	}
	reportClient(tr, r.res)
	r.res.set("client.estimate_rtt_us", tr.med("client.estimate_rtt_us")/1e3, "us")
	return finishTrace(r, tr)
}
