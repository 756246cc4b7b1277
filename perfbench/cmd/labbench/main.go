// Command labbench is the repository benchmark. It drives three layers of
// the lab from outside, through their public calls, and checks what they
// return:
//
//   - suite-full: core.Lab.RunAll over every experiment in full mode;
//   - pdes-phold: pdes.Run over the PHOLD workload defined in phold.go;
//   - daemon-zipf: an open loop of /v1/run requests against serve.Server's
//     handler on a loopback listener.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	labbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The first stdout line records the run context; the last is the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, measured untraced; with --trace 1 they are
// the per-layer set, and the spans go to .bench_build/traces as Chrome
// trace-event JSON. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// params is what every workload receives.
type params struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil for untraced runs
}

// outcome is what every workload returns: operation counts for the
// correctness check and metric values by name.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	context           map[string]string
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), context: make(map[string]string)}
}

// latency records the operation latency summary: the median as a gated
// metric; the mean and the tail percentile, which spread too much from run
// to run on a small shared host to gate, in the context line and in the
// traced metrics.
func (o *outcome) latency(l latency) {
	o.values["p50_ms"] = l.p50
	o.values["traced.p50_ms"] = l.p50
	o.values["traced.mean_ms"] = l.mean
	o.values["traced.tail_ms"] = l.tail
	o.context["samples"] = strconv.Itoa(l.n)
	o.context["mean_ms"] = strconv.FormatFloat(l.mean, 'g', -1, 64)
	o.context["tail_pct"] = strconv.Itoa(l.tailPct)
	o.context["tail_ms"] = strconv.FormatFloat(l.tail, 'g', -1, 64)
}

// metric names one reported number.
type metric struct {
	name, unit, better string
}

// endToEnd is the gated set every workload reports under --trace 0; the
// operation each one counts is workload-specific (README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(context.Context, params) (*outcome, error){
	"suite-full":  runSuiteFull,
	"pdes-phold":  runPHOLD,
	"daemon-zipf": runDaemon,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement time per run in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	refs := flag.Bool("print-refs", false, "print the suite-full reference hashes as Go source and exit")
	flag.Parse()

	if *refs {
		if err := printSuiteRefs(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "labbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "labbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "labbench: run from the repository root:", err)
		return 2
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		p.tr = newTracer()
	}
	out, err := drive(context.Background(), p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labbench:", err)
		return 1
	}
	names, gated := endToEnd, true
	if p.tr != nil {
		out.values["proc.peak_rss_mb"] = peakRSSMB()
		out.values["fail_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
		out.values["trace.spans"] = float64(len(p.tr.finished()))
		out.values["traced.ops_per_s"] = out.values["ops_per_s"]
		path := filepath.Join(".bench_build", "traces", *workload+"-seed"+strconv.FormatUint(*seed, 10)+".json")
		if err := p.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "labbench:", err)
			return 1
		}
		out.context["trace_file"] = path
		names, gated = perLayer(), false
	}
	ctxLine, err := json.Marshal(map[string]any{"context": runContext(*workload, *seed, *seconds, out.context)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "labbench:", err)
		return 1
	}
	res, err := resultLine(out, names, gated)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labbench:", err)
		return 1
	}
	fmt.Println(string(ctxLine))
	fmt.Println(string(res))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runContext is the run's context, reported as fields rather than folded
// into metric names, so results from hosts with different core counts
// still line up by name.
func runContext(workload string, seed uint64, seconds int, extra map[string]string) map[string]string {
	c := map[string]string{
		"workload":   workload,
		"seed":       strconv.FormatUint(seed, 10),
		"seconds":    strconv.Itoa(seconds),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	for k, v := range extra {
		c[k] = v
	}
	return c
}

// commit names the source revision from the build's VCS stamp, or
// "unknown" (a benchmark checkout need not be a git repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// resultLine renders the final JSON object with exactly the named metrics.
// A gated (end-to-end) metric the workload did not measure is a bug; a
// per-layer metric of a layer the workload does not exercise reads 0.
func resultLine(out *outcome, names []metric, gated bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, m := range names {
		v, ok := out.values[m.name]
		if !ok && gated {
			return nil, fmt.Errorf("end-to-end metric %s not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}

// allocBytes returns the bytes allocated by the process so far.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// setupReps is how many times a workload sets up on each side of its
// measured loop. setup_s is the median of all of them: timing set-up both
// before and after the loop means a slow stretch of the host at one end
// moves the median less.
const setupReps = 5

// timeSetup runs fn setupReps times and returns the last value fn produced
// with each repetition's duration in seconds.
func timeSetup[T any](fn func() (T, error)) (T, []float64, error) {
	var v T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		got, err := fn()
		if err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		v = got
	}
	return v, times, nil
}
