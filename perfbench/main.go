// Command perfbench is the sketchd service benchmark. It boots sketchd
// in-process on loopback TCP listeners, drives one workload from a
// seeded generator, checks every answer against exact truth the
// generator tracks, and prints the run record, the input digest, a
// report of every metric with its unit and sample count, and, as the
// last line, the JSON result. From the root of the repository:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it instead replays the workload's inputs through each
// layer's public functions, one span per call, writes the spans under
// .bench_build/perfbench/spans and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload to why it is in the benchmark (the same
// sentence BENCHMARK.json records).
var workloads = map[string]string{
	"ingest":   "batched Zipf ingest into a durable node: wire decode, engine, sketch and policy update and WAL dominate; no reads run",
	"adaptive": "two closed-loop adversaries play the paper's game over HTTP: per-request cost, flush barrier and policy switching dominate",
	"mixed":    "90/10 writes and query batches on a 3-node R=2 cluster: TopK, forwarding and ship rounds run beside ingest",
}

// endToEnd and perLayer name the metrics of the result line, with
// --trace 0 and --trace 1 respectively (BENCHMARK.json lists the same):
// those every workload reports and, for endToEnd, whose run-to-run
// spread on a shared 2-vCPU host stays inside a bound (latencies moved
// by a quarter to a third between runs). The report line above it
// carries every metric, these included.
var (
	endToEnd = []string{"setup_s", "updates_per_s", "heap_mb"}
	perLayer = []string{
		"hash.sign_bucket_ns", "sketch.update_ns", "policy.update_ns", "policy.estimate_ns",
		"policy.switches", "policy.state_bytes", "engine.update_ns", "engine.flush_us",
		"wire.decode_ns_per_update", "wire.encode_ns_per_update", "wire.bytes_per_update",
		"server.update_us", "server.self_us", "client.update_rtt_us", "net.self_us",
		"trace.overhead_ratio",
	}
)

// fsyncPolicy is the WAL policy of every durable node.
const fsyncPolicy = "batch"

// setupRepeats is how many times a run boots its system: setup_s is the
// median boot time and the last boot is the one measured. Booting the
// mixed cluster includes its preload, so it repeats fewer times.
const (
	setupRepeats      = 7
	setupRepeatsMixed = 3
)

// bootMedian boots repeats times, stopping every system but the last,
// and returns the last one with the median boot time in seconds.
func bootMedian[T any](repeats int, boot func(i int) (T, error), stop func(T) error) (T, float64, error) {
	var sys T
	var secs []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		var err error
		if sys, err = boot(i); err != nil {
			return sys, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < repeats-1 {
			if err := stop(sys); err != nil {
				return sys, 0, err
			}
		}
	}
	return sys, median(secs), nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "ingest | adaptive | mixed")
	seed := flag.Int64("seed", 1, "workload seed (inputs only; the server seed is fixed)")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	why, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload ingest|adaptive|mixed --seed N --seconds S --trace 0|1\n")
		return 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		senders:  runtime.NumCPU(),
		root:     filepath.Join(".bench_build", "perfbench"),
	}
	r.res = newResult(endToEnd)
	if r.trace {
		r.res = newResult(perLayer)
	}
	if r.senders > 2 {
		r.senders = 2
	}
	r.dir = filepath.Join(r.root, fmt.Sprintf("%s-%d-%d", r.workload, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		logf("%v", err)
		return 2
	}
	defer os.RemoveAll(r.dir)

	emit(map[string]any{"record": record(r, why)})
	cpu0 := cpuTimes()
	var err error
	switch {
	case r.workload == "ingest" && !r.trace:
		err = runIngest(r)
	case r.workload == "ingest":
		err = traceIngest(r)
	case r.workload == "adaptive" && !r.trace:
		err = runAdaptive(r)
	case r.workload == "adaptive":
		err = traceAdaptive(r)
	case r.workload == "mixed" && !r.trace:
		err = runMixed(r)
	default:
		err = traceMixed(r)
	}
	if err != nil {
		logf("%s: %v", r.workload, err)
		return 1
	}
	if cpu0 != nil {
		if cpu1 := cpuTimes(); cpu1 != nil {
			// The hypervisor's share of this VM's CPU time during the run:
			// a run that lost much of it to steal ran on a slower host.
			var total int64
			for i := range cpu1 {
				total += cpu1[i] - cpu0[i]
			}
			r.res.set("host.steal_ratio", float64(cpu1[7]-cpu0[7])/float64(max(total, 1)), "ratio")
		}
	}
	return r.res.finish()
}

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	senders  int    // sender goroutines and connections per node
	root     string // benchmark scratch root inside the checkout
	dir      string // this run's data directories
	res      *result
}

// measured is the measured time of the run.
func (r *run) measured() time.Duration { return time.Duration(r.seconds) * time.Second }

// record is the run's host and configuration record.
func record(r *run, why string) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   r.workload,
		"why":        why,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"fsync":      fsyncPolicy,
		"senders":    r.senders,
		"algo_seed":  algoSeed,
	}
}

// cpuTimes returns the first eight counters of /proc/stat's cpu line
// (user … steal), or nil where there is none.
func cpuTimes() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, 8)
	for i := range out {
		if out[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return nil
		}
	}
	return out
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates a run's outcome.
type result struct {
	attempted  int
	failed     int
	violations []string
	want       []string          // the final line's metric names
	gated      map[string]metric // the final line's metrics
	report     map[string]any    // every metric, with units and sample counts
}

func newResult(want []string) *result {
	return &result{want: want, gated: map[string]metric{}, report: map[string]any{}}
}

// ops counts attempted operations and those that failed (errors and
// refusals).
func (res *result) ops(attempted, failed int) {
	res.attempted += attempted
	res.failed += failed
}

// check records one checked answer; a wrong one is a failed operation
// and a correctness violation. Only the first few messages are kept.
func (res *result) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	res.failed++
	if len(res.violations) < 20 {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
}

// violated counts a correctness violation on an operation already
// counted as attempted elsewhere; it is check(false, …).
func (res *result) violated(format string, args ...any) { res.check(false, format, args...) }

// set reports a metric in the report and, when the result line wants
// it, there too.
func (res *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		logf("metric %s has no value; reporting 0", name)
		v = 0
	}
	res.report[name] = metric{Value: v, Unit: unit}
	if slices.Contains(res.want, name) {
		res.gated[name] = metric{Value: v, Unit: unit}
	}
}

// lat reports a latency series, given in send order, as name_p50_ms
// (over every sample) and name_p99_ms (the median of the p99s of
// consecutive blocks, see blockedTail), with the sample counts and the
// whole series' own tail beside them.
func (res *result) lat(name string, xs []float64) {
	s := summarize(xs, 99)
	tail, blocks := blockedTail(xs)
	res.set(name+"_p50_ms", s.P50, "ms")
	res.set(name+"_p99_ms", tail, "ms")
	res.report[name+"_samples"] = map[string]any{"all": s, "p99_blocks": blocks, "block": tailBlock}
}

// rate reports a closed-loop rate from its per-window rates (see
// windowRates) as their median, with their quartiles beside it.
func (res *result) rate(name string, windows []float64) {
	s := append([]float64(nil), windows...)
	sort.Float64s(s)
	res.set(name, median(s), "1/s")
	res.report[name+"_windows"] = map[string]any{
		"n": len(s), "q1": quantile(s, 25), "q3": quantile(s, 75), "max": quantile(s, 100), "window_s": rateWindow.Seconds(),
	}
}

// finish prints the report and the result line and returns the exit
// code: 1 on a correctness violation or a metric the run did not
// produce.
func (res *result) finish() int {
	for _, name := range res.want {
		if _, ok := res.gated[name]; !ok {
			logf("metric %s was not measured", name)
			return 1
		}
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	res.report["failed_ratio"] = metric{Value: ratio, Unit: "ratio"}
	for _, v := range res.violations {
		logf("violation: %s", v)
	}
	emit(map[string]any{"report": res.report})
	correct := len(res.violations) == 0
	emit(map[string]any{
		"correct":   correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   res.gated,
	})
	if !correct {
		return 1
	}
	return 0
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every emitted value is plain data
	}
	fmt.Println(string(b))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
