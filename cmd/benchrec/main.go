// Command benchrec runs the repository's ingest/query benchmarks and
// records the parsed results as a JSON document, so throughput and space
// numbers live next to the code that produced them and regressions show
// up as diffs. It shells out to the standard benchmark runner (the
// numbers are exactly what `go test -bench` prints — benchrec adds no
// measurement of its own) and parses the result lines, including
// ReportMetric columns like the policy benchmarks' working-state bytes.
//
// The runner always passes -benchmem, so every recorded cell carries
// B/op and allocs/op next to ns/op — the zero-alloc ingest spine is a
// recorded number (BenchmarkEngineSteadyState: 0 allocs/op), not a
// claim, and an allocation regression shows up as a JSON diff exactly
// like a throughput regression.
//
// Usage:
//
//	go run ./cmd/benchrec                      # update BENCH_ingest.json
//	go run ./cmd/benchrec -bench 'TopK' -o -   # ad-hoc subset to stdout
//	go run ./cmd/benchrec -bench 'RobustF2' -cpuprofile cpu.out
//	                                           # then: go tool pprof cpu.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (kept in Procs instead, so parallel results stay comparable across
	// machines).
	Name  string `json:"name"`
	Procs int    `json:"procs,omitempty"`

	// Runs is the iteration count the runner settled on; NsPerOp the
	// headline per-operation cost.
	Runs    int     `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`

	// Metrics holds every further "value unit" column (bytes of working
	// state from ReportMetric, B/op, allocs/op, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchDoc is the emitted document.
type benchDoc struct {
	Go        string        `json:"go"`
	Bench     string        `json:"bench"`
	Benchtime string        `json:"benchtime"`
	Package   string        `json:"package"`
	Results   []benchResult `json:"results"`
}

// benchLine matches one result line of the benchmark runner's output:
// name, iteration count, then one or more "value unit" measurement pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func parse(output string) []benchResult {
	var out []benchResult
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		res := benchResult{Name: m[1]}
		if i := strings.LastIndex(res.Name, "-"); i > 0 {
			if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
				res.Name, res.Procs = res.Name[:i], procs
			}
		}
		res.Runs, _ = strconv.Atoi(m[2])
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
				continue
			}
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[fields[i+1]] = v
		}
		out = append(out, res)
	}
	return out
}

func main() {
	var (
		bench     = flag.String("bench", "BenchmarkSketchdIngest|BenchmarkPolicyIngest|BenchmarkModelIngest|BenchmarkTopKQuery|BenchmarkEngineSteadyState|BenchmarkClusterIngestReplicated|BenchmarkClusterGlobalQuery|BenchmarkTenantSnapshot", "benchmark name regex passed to the runner")
		benchtime = flag.String("benchtime", "1s", "per-benchmark measuring time (or '3x' iteration form)")
		pkg       = flag.String("pkg", ". ./internal/engine", "space-separated package directories holding the benchmarks")
		out       = flag.String("o", "BENCH_ingest.json", "output path, or '-' for stdout")
		profile   = flag.String("cpuprofile", "", "also write the runner's CPU profile here (pprof format); restrict -bench and -pkg to one cell for a readable profile")
	)
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-benchmem"}
	if *profile != "" {
		if len(strings.Fields(*pkg)) > 1 {
			fmt.Fprintln(os.Stderr, "-cpuprofile needs a single -pkg directory (the runner writes one profile per package, the last overwriting the rest)")
			os.Exit(2)
		}
		args = append(args, "-cpuprofile", *profile)
	}
	args = append(args, strings.Fields(*pkg)...)
	cmd := exec.Command("go", args...)
	raw, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark run failed: %v\n%s", err, raw)
		os.Exit(1)
	}
	results := parse(string(raw))
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "no benchmark results matched -bench %q:\n%s", *bench, raw)
		os.Exit(1)
	}
	doc := benchDoc{
		Go: runtime.Version(), Bench: *bench, Benchtime: *benchtime, Package: *pkg,
		Results: results,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: %d benchmarks recorded\n", *out, len(results))
}
