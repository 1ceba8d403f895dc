package main

import (
	"bufio"
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/hash"
	"repro/internal/heavyhitters"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Tracing. The traced run times each layer's public functions from the
// benchmark's own code: one span per call, carrying the index of the
// workload request the call replays. Spans stay in memory and are
// written out when the run ends.

type span struct {
	name       int32
	req        int32
	start, end int64 // ns since the tracer started
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	ids   map[string]int32
	names []string
	spans []span
	unit  map[string][]float64 // per span: ns per unit of work
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]int32{}, unit: map[string][]float64{}}
}

// now returns a span start; on a nil tracer it is free and rec ignores
// it, so untraced phases run the same code.
func (tr *tracer) now() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.t0))
}

// rec closes a span of name started at start, replaying request req and
// covering units units of work, and returns its duration in ns.
func (tr *tracer) rec(name string, req int, start int64, units int) float64 {
	if tr == nil {
		return 0
	}
	end := int64(time.Since(tr.t0))
	tr.mu.Lock()
	id, ok := tr.ids[name]
	if !ok {
		id = int32(len(tr.names))
		tr.ids[name] = id
		tr.names = append(tr.names, name)
	}
	tr.spans = append(tr.spans, span{name: id, req: int32(req), start: start, end: end})
	tr.unit[name] = append(tr.unit[name], float64(end-start)/float64(max(units, 1)))
	tr.mu.Unlock()
	return float64(end - start)
}

// med returns the median ns per unit over name's spans.
func (tr *tracer) med(name string) float64 { return median(tr.unit[name]) }

// write stores the spans as tab-separated name, request, start and end
// (ns since the run's tracer started).
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\treq\tstart_ns\tend_ns")
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", tr.names[s.name], s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace writes the spans and reports where.
func finishTrace(r *run, tr *tracer) error {
	path := filepath.Join(r.root, "spans", fmt.Sprintf("%s-seed%d.tsv", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	emit(map[string]any{"spans": path, "span_count": len(tr.spans)})
	return nil
}

// replayReq is one workload request as the layers see it: a write of
// ups, or a read (an estimate, plus points and a top-k when asked).
type replayReq struct {
	tenant int
	ups    []wire.Update
	points []uint64
	topk   int
}

// replaySet is a workload's inputs prepared for the layer replay.
type replaySet struct {
	tenants    []tenantDef
	cfg        server.Config // the workload's server config; DataDir set means durable
	preload    [][]wire.Update
	reqs       []replayReq
	flushEvery int // writes between engine flushes, for workloads whose reads do not flush
}

func toWire(us []client.Update) []wire.Update {
	out := make([]wire.Update, len(us))
	for i, u := range us {
		out[i] = wire.Update{Item: u.Item, Delta: u.Delta}
	}
	return out
}

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink float64

// replayLayers replays rs through every layer's public functions in
// turn and reports the per-layer metrics.
func replayLayers(tr *tracer, res *result, rs replaySet, dir string) error {
	updates := 0
	for _, q := range rs.reqs {
		updates += len(q.ups)
	}
	replayHash(tr, res, rs)
	if err := replaySketches(tr, res, rs); err != nil {
		return err
	}
	if err := replayPolicy(tr, res, rs); err != nil {
		return err
	}
	engineNs, answers, err := replayEngine(tr, res, rs)
	if err != nil {
		return err
	}
	frames, decodeNs := replayWire(tr, res, rs, answers)
	var walNs map[int]float64
	if rs.cfg.DataDir != "" {
		if walNs, err = replayWAL(tr, res, rs, frames, filepath.Join(dir, "wal"), updates); err != nil {
			return err
		}
	}
	serverNs, err := replayServer(tr, res, rs, frames, filepath.Join(dir, "server"))
	if err != nil {
		return err
	}
	// Handler self time: the update handler's span minus the parts of it
	// the other replays timed on the same request.
	var self []float64
	for i, ns := range serverNs {
		self = append(self, ns-decodeNs[i]-engineNs[i]-walNs[i])
	}
	res.set("server.self_us", median(self)/1e3, "us")
	return nil
}

// replayHash times Poly.SignBucket over every written item, one span
// per write request.
func replayHash(tr *tracer, res *result, rs replaySet) {
	p := hash.NewPoly(4, rand.New(rand.NewSource(algoSeed)))
	w := heavyhitters.SizeForPointQuery(0.2, 0.05).Width
	acc := int64(0)
	for i, q := range rs.reqs {
		if q.ups == nil {
			continue
		}
		t := tr.now()
		for _, u := range q.ups {
			s, b := p.SignBucket(u.Item, w)
			acc += s + int64(b)
		}
		tr.rec("hash.sign_bucket_ns", i, t, len(q.ups))
	}
	sink += float64(acc)
	res.set("hash.sign_bucket_ns", tr.med("hash.sign_bucket_ns"), "ns")
}

// estimatorFor builds one shard estimator of spec as a tenant on a
// server with cfg would (policy-wrapped when the spec has a policy).
func estimatorFor(spec server.TenantSpec, cfg server.Config) (sketch.Estimator, error) {
	ec, err := server.EngineConfig(spec, cfg, algoSeed)
	if err != nil {
		return nil, err
	}
	return ec.Factory(algoSeed), nil
}

// baseSpec is spec without its robustness policy: the bare sketch
// underneath.
func baseSpec(spec server.TenantSpec) server.TenantSpec {
	return server.TenantSpec{Sketch: spec.Sketch, Eps: spec.Eps, N: spec.N, Shards: spec.Shards}
}

func applyAll(est sketch.Estimator, us []wire.Update) {
	for _, u := range us {
		est.Update(u.Item, u.Delta)
	}
}

// replaySketches times the bare sketches: Update per written item, and
// CountSketch Query and TopK per read.
func replaySketches(tr *tracer, res *result, rs replaySet) error {
	ests := make([]sketch.Estimator, len(rs.tenants))
	for t, def := range rs.tenants {
		est, err := estimatorFor(baseSpec(def.spec), rs.cfg)
		if err != nil {
			return err
		}
		if rs.preload != nil {
			applyAll(est, rs.preload[t])
		}
		ests[t] = est
	}
	var cands, useful []float64
	for i, q := range rs.reqs {
		est := ests[q.tenant]
		if q.ups != nil {
			t := tr.now()
			applyAll(est, q.ups)
			tr.rec("sketch.update_ns", i, t, len(q.ups))
			continue
		}
		cs, ok := est.(*heavyhitters.CountSketch)
		if !ok || q.topk == 0 {
			continue
		}
		t := tr.now()
		for _, p := range q.points {
			sink += cs.Query(p)
		}
		tr.rec("sketch.query_ns", i, t, len(q.points))
		t = tr.now()
		top := cs.TopK(q.topk)
		tr.rec("sketch.topk_us", i, t, 1)
		c := float64(len(cs.HeavyHitters(0))) // every candidate TopK ranked
		cands = append(cands, c)
		useful = append(useful, float64(len(top))/c)
	}
	res.set("sketch.update_ns", tr.med("sketch.update_ns"), "ns")
	if len(cands) > 0 {
		res.set("sketch.query_ns", tr.med("sketch.query_ns"), "ns")
		res.set("sketch.topk_us", tr.med("sketch.topk_us")/1e3, "us")
		res.set("sketch.topk_candidates", median(cands), "count")
		res.set("sketch.topk_useful_ratio", median(useful), "ratio")
	}
	return nil
}

// replayPolicy times the policy-wrapped estimators of the robust
// tenants: Update per written item and Estimate after each write.
func replayPolicy(tr *tracer, res *result, rs replaySet) error {
	ests := make([]sketch.Estimator, len(rs.tenants))
	for t, def := range rs.tenants {
		if def.spec.Policy == "" || def.spec.Policy == "none" {
			continue
		}
		est, err := estimatorFor(def.spec, rs.cfg)
		if err != nil {
			return err
		}
		if rs.preload != nil {
			applyAll(est, rs.preload[t])
		}
		ests[t] = est
	}
	for i, q := range rs.reqs {
		est := ests[q.tenant]
		if est == nil || q.ups == nil {
			continue
		}
		t := tr.now()
		applyAll(est, q.ups)
		tr.rec("policy.update_ns", i, t, len(q.ups))
		t = tr.now()
		sink += est.Estimate()
		tr.rec("policy.estimate_ns", i, t, 1)
	}
	switches, space, used := 0.0, 0.0, 0.0
	for _, est := range ests {
		if est == nil {
			continue
		}
		space += float64(est.SpaceBytes())
		if rr, ok := est.(sketch.RobustnessReporter); ok {
			rob := rr.Robustness()
			switches += float64(rob.Switches)
			if rob.Budget > 0 {
				used = math.Max(used, float64(rob.Switches)/float64(rob.Budget))
			}
		}
	}
	res.set("policy.update_ns", tr.med("policy.update_ns"), "ns")
	res.set("policy.estimate_ns", tr.med("policy.estimate_ns"), "ns")
	res.set("policy.switches", switches, "count")
	res.set("policy.state_bytes", space, "B")
	if used > 0 {
		res.set("policy.budget_used_ratio", used, "ratio")
	}
	return nil
}

// replayEngine times each tenant's sharded engine: TryUpdate per written
// item, Flush, and QueryBatch per read with points. It returns the
// per-request engine time of each write, for the handler's self time,
// and each query batch's answer frame, for the codec replay.
func replayEngine(tr *tracer, res *result, rs replaySet) (map[int]float64, map[int]*wire.QueryResponse, error) {
	engs := make([]*engine.Engine, len(rs.tenants))
	for t, def := range rs.tenants {
		ec, err := server.EngineConfig(def.spec, rs.cfg, algoSeed)
		if err != nil {
			return nil, nil, err
		}
		engs[t] = engine.New(ec)
		defer engs[t].Close()
		if rs.preload != nil {
			for _, u := range rs.preload[t] {
				engs[t].Update(u.Item, u.Delta)
			}
			engs[t].Flush()
		}
	}
	perReq := map[int]float64{}
	answers := map[int]*wire.QueryResponse{}
	refused, sinceFlush := 0, 0
	for i, q := range rs.reqs {
		e := engs[q.tenant]
		if q.ups != nil {
			t := tr.now()
			for _, u := range q.ups {
				if !e.TryUpdate(u.Item, u.Delta) {
					refused++
				}
			}
			perReq[i] = tr.rec("engine.update_ns", i, t, len(q.ups))
			if sinceFlush++; rs.flushEvery > 0 && sinceFlush >= rs.flushEvery {
				sinceFlush = 0
				t = tr.now()
				e.Flush()
				tr.rec("engine.flush_us", i, t, 1)
			}
			continue
		}
		sinceFlush = 0
		t := tr.now()
		e.Flush()
		tr.rec("engine.flush_us", i, t, 1)
		if q.topk == 0 {
			sink += e.Estimate()
			continue
		}
		t = tr.now()
		est, pts, top, err := e.QueryBatch(q.points, q.topk)
		if err != nil {
			return nil, nil, fmt.Errorf("query batch: %w", err)
		}
		tr.rec("engine.querybatch_us", i, t, 1)
		answers[i] = answerFrame(rs.tenants[q.tenant].key, q.points, est, pts, top)
	}
	res.set("engine.update_ns", tr.med("engine.update_ns"), "ns")
	res.set("engine.flush_us", tr.med("engine.flush_us")/1e3, "us")
	if len(tr.unit["engine.querybatch_us"]) > 0 {
		res.set("engine.querybatch_us", tr.med("engine.querybatch_us")/1e3, "us")
	}
	res.set("engine.tryupdate_refused", float64(refused), "count")
	return perReq, answers, replayCodec(tr, res, rs, engs)
}

// replayCodec times serializing each mergeable tenant's final state:
// MarshalBinary of every shard estimator, as a snapshot or checkpoint
// does, one span per tenant.
func replayCodec(tr *tracer, res *result, rs replaySet, engs []*engine.Engine) error {
	stateBytes := 0
	for t, e := range engs {
		for k := 0; k < 5; k++ {
			size := 0
			s := tr.now()
			err := e.Visit(func(_ int, est sketch.Estimator) error {
				m, ok := est.(encoding.BinaryMarshaler)
				if !ok {
					return nil
				}
				b, err := m.MarshalBinary()
				size += len(b)
				return err
			})
			if err != nil {
				return fmt.Errorf("marshal %s: %w", rs.tenants[t].key, err)
			}
			if size == 0 {
				break // not mergeable
			}
			tr.rec("codec.marshal_us", t, s, 1)
			if k == 0 {
				stateBytes += size
			}
		}
	}
	if stateBytes > 0 {
		res.set("codec.marshal_us", tr.med("codec.marshal_us")/1e3, "us")
		res.set("codec.state_bytes", float64(stateBytes), "B")
	}
	return nil
}

// answerFrame is the answer frame a server would send for one query
// batch's engine results.
func answerFrame(key string, items []uint64, est float64, pts []float64, top []sketch.ItemWeight) *wire.QueryResponse {
	resp := &wire.QueryResponse{Key: key, Answers: []wire.Answer{{Kind: wire.KindEstimate, Value: est}}}
	for k, p := range items {
		resp.Answers = append(resp.Answers, wire.Answer{Kind: wire.KindPoint, HasItem: true, Item: p, Value: pts[k]})
	}
	a := wire.Answer{Kind: wire.KindTopK}
	for _, iw := range top {
		a.Items = append(a.Items, wire.ItemWeight{Item: iw.Item, Weight: iw.Weight})
	}
	return &wire.QueryResponse{Key: resp.Key, Answers: append(resp.Answers, a)}
}

// replayWire times the binary codec: encode and decode of every update
// frame, decode of every query frame and encode of its answer. It
// returns the update frames by request and each one's decode time.
func replayWire(tr *tracer, res *result, rs replaySet, answers map[int]*wire.QueryResponse) (map[int][]byte, map[int]float64) {
	frames := map[int][]byte{}
	decodeNs := map[int]float64{}
	var bpu []float64
	var dst []wire.Update
	for i, q := range rs.reqs {
		if q.ups != nil {
			t := tr.now()
			f := wire.AppendUpdates(nil, q.ups)
			tr.rec("wire.encode_ns_per_update", i, t, len(q.ups))
			t = tr.now()
			var err error
			if dst, err = wire.DecodeUpdates(f, dst[:0]); err != nil {
				panic(err) // a frame just encoded always decodes
			}
			decodeNs[i] = tr.rec("wire.decode_ns_per_update", i, t, len(q.ups))
			frames[i] = f
			bpu = append(bpu, float64(len(f))/float64(len(q.ups)))
			continue
		}
		if q.topk == 0 {
			continue
		}
		wq := queryFrame(rs.tenants[q.tenant].key, q)
		f := wire.AppendQuery(nil, wq)
		t := tr.now()
		var got wire.QueryRequest
		if err := wire.DecodeQuery(f, &got); err != nil {
			panic(err)
		}
		tr.rec("wire.query_decode_us", i, t, 1)
		t = tr.now()
		sink += float64(len(wire.AppendAnswer(nil, answers[i])))
		tr.rec("wire.answer_encode_us", i, t, 1)
	}
	res.set("wire.encode_ns_per_update", tr.med("wire.encode_ns_per_update"), "ns")
	res.set("wire.decode_ns_per_update", tr.med("wire.decode_ns_per_update"), "ns")
	res.set("wire.bytes_per_update", median(bpu), "B")
	if len(tr.unit["wire.query_decode_us"]) > 0 {
		res.set("wire.query_decode_us", tr.med("wire.query_decode_us")/1e3, "us")
		res.set("wire.answer_encode_us", tr.med("wire.answer_encode_us")/1e3, "us")
	}
	return frames, decodeNs
}

// replayWAL times Log.Append of every update frame and Log.Sync every 16
// appends, then reopens the log and times Replay without applying.
func replayWAL(tr *tracer, res *result, rs replaySet, frames map[int][]byte, dir string, updates int) (map[int]float64, error) {
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncBatch})
	if err != nil {
		return nil, err
	}
	perReq := map[int]float64{}
	n := 0
	for i, q := range rs.reqs {
		f, ok := frames[i]
		if !ok {
			continue
		}
		t := tr.now()
		if _, err := l.Append(wal.Record{Kind: wal.KindUpdate, Key: rs.tenants[q.tenant].key, Data: f}); err != nil {
			l.Close()
			return nil, err
		}
		perReq[i] = tr.rec("wal.append_us", i, t, 1)
		if n++; n%16 == 0 {
			t = tr.now()
			if err := l.Sync(); err != nil {
				l.Close()
				return nil, err
			}
			tr.rec("wal.sync_ms", i, t, 1)
		}
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	l, err = wal.Open(dir, wal.Options{Fsync: wal.FsyncBatch})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	st := l.Stats()
	t := tr.now()
	records := 0
	if err := l.Replay(func(uint64, wal.Record) error { records++; return nil }); err != nil {
		return nil, err
	}
	replayNs := tr.rec("wal.replay_s", -1, t, 1)
	res.set("wal.append_us", tr.med("wal.append_us")/1e3, "us")
	res.set("wal.sync_ms", tr.med("wal.sync_ms")/1e6, "ms")
	res.set("wal.bytes_per_update", float64(size)/float64(max(updates, 1)), "B")
	res.set("wal.records", float64(st.Records), "count")
	res.set("wal.segments", float64(st.Segments), "count")
	res.set("wal.replay_s", replayNs/1e9, "s")
	return perReq, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

// replayServer times the HTTP handler without TCP: each request is
// served through Handler().ServeHTTP into a recorder.
func replayServer(tr *tracer, res *result, rs replaySet, frames map[int][]byte, dir string) (map[int]float64, error) {
	cfg := rs.cfg
	if cfg.DataDir != "" {
		cfg.DataDir = dir
	}
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown()
	h := srv.Handler()
	non2xx := 0
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code < 200 || w.Code > 299 {
			non2xx++
		}
		return w
	}
	for t, def := range rs.tenants {
		body, _ := json.Marshal(server.CreateTenantRequest{Key: def.key, Spec: def.spec})
		if w := serve(httptest.NewRequest(http.MethodPost, "/v2/keys", bytes.NewReader(body))); w.Code != http.StatusOK && w.Code != http.StatusCreated {
			return nil, fmt.Errorf("create %s: HTTP %d %s", def.key, w.Code, w.Body.String())
		}
		if rs.preload != nil {
			for off := 0; off < len(rs.preload[t]); off += mixedBatch {
				f := wire.AppendUpdates(nil, rs.preload[t][off:min(off+mixedBatch, len(rs.preload[t]))])
				serve(updateRequest(def.key, f))
			}
		}
	}
	perReq := map[int]float64{}
	for i, q := range rs.reqs {
		key := rs.tenants[q.tenant].key
		switch {
		case q.ups != nil:
			req := updateRequest(key, frames[i])
			t := tr.now()
			serve(req)
			perReq[i] = tr.rec("server.update_us", i, t, 1)
		case q.topk > 0:
			wq := queryFrame(key, q)
			req := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(wire.AppendQuery(nil, wq)))
			req.Header.Set("Content-Type", wire.ContentType)
			req.Header.Set("Accept", wire.ContentType)
			t := tr.now()
			serve(req)
			tr.rec("server.query_us", i, t, 1)
		default:
			req := httptest.NewRequest(http.MethodGet, "/v1/estimate?key="+key, nil)
			t := tr.now()
			serve(req)
			tr.rec("server.estimate_us", i, t, 1)
		}
	}
	res.set("server.update_us", tr.med("server.update_us")/1e3, "us")
	for _, name := range []string{"server.query_us", "server.estimate_us"} {
		if len(tr.unit[name]) > 0 {
			res.set(name, tr.med(name)/1e3, "us")
		}
	}
	res.set("server.non2xx", float64(non2xx), "count")
	return perReq, nil
}

// queryFrame is a read's query batch: the estimate, each point, the
// top-k.
func queryFrame(key string, q replayReq) *wire.QueryRequest {
	wq := &wire.QueryRequest{Key: key, Queries: []wire.Query{{Kind: wire.KindEstimate}}}
	for _, p := range q.points {
		wq.Queries = append(wq.Queries, wire.Query{Kind: wire.KindPoint, Item: p})
	}
	wq.Queries = append(wq.Queries, wire.Query{Kind: wire.KindTopK, K: q.topk})
	return wq
}

func updateRequest(key string, frame []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v2/update?key="+key, bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	return req
}

// reportClient reports the client round trips of a traced live phase
// and the network's share of an update's: its round trip minus the
// handler's time for an update.
func reportClient(tr *tracer, res *result) {
	res.set("client.update_rtt_us", tr.med("client.update_rtt_us")/1e3, "us")
	res.set("net.self_us", (tr.med("client.update_rtt_us")-tr.med("server.update_us"))/1e3, "us")
	if len(tr.unit["client.query_rtt_us"]) > 0 {
		res.set("client.query_rtt_us", tr.med("client.query_rtt_us")/1e3, "us")
	}
}

// overhead reports the traced phase's throughput over the untraced one.
func overhead(res *result, traced, untraced float64) {
	res.set("trace.overhead_ratio", traced/untraced, "ratio")
}
