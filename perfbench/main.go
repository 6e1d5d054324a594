// Command perfbench is the CHAOS benchmark. One invocation runs one
// workload for a fixed number of seconds, checks every output against an
// oracle, and prints its metrics: the end-to-end metrics when untraced,
// the per-layer metrics when --trace 1. The last line of standard output
// is a JSON object {"correct", "attempted", "failed", "metrics"}; the
// lines before it name every metric with its unit and sample count.
//
// The benchmark is a client of the repo's packages: it drives their
// public functions and times the calls into each layer from its own code.
// NOTES.md beside this file records why each workload exists and the
// run-to-run spread of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/mathx"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// the order they are printed. Every workload reports every name; a layer
// the workload never calls reads 0 in the traced run.
var (
	endToEnd = []string{"setup_s", "mem_mb", "p50_ms", "p90_ms", "work_per_s"}
	perLayer = []string{
		"serve.http_ms", "serve.engine_ms", "serve.read_ms", "serve.decode_ms", "serve.encode_ms",
		"serve.transport_ms", "serve.batch_size", "serve.allocs_per_request",
		"online.predict_us", "online.allocs_per_sample", "models.predict_ns",
		"cluster.ns_per_event", "cluster.events", "cluster.allocs_per_event",
		"control.tick_ms", "control.share_pct", "control.decisions",
		"control.freq_actuations", "control.migrations",
		"telemetry.collect_s", "featsel.select_s", "featsel.features",
		"models.fit_linear_ms", "models.fit_piecewise_ms", "models.fit_quadratic_ms",
		"models.fit_switching_ms", "core.cv_ms",
		"traced.p50_ms", "traced.p90_ms", "traced.work_per_s",
	}
	units = map[string]string{
		"setup_s": "s", "mem_mb": "MiB", "p50_ms": "ms", "p90_ms": "ms", "work_per_s": "1/s",
		"serve.http_ms": "ms", "serve.engine_ms": "ms", "serve.read_ms": "ms", "serve.decode_ms": "ms",
		"serve.encode_ms": "ms", "serve.transport_ms": "ms", "serve.batch_size": "count",
		"serve.allocs_per_request": "count", "online.predict_us": "us",
		"online.allocs_per_sample": "count", "models.predict_ns": "ns",
		"cluster.ns_per_event": "ns", "cluster.events": "count",
		"cluster.allocs_per_event": "count", "control.tick_ms": "ms", "control.share_pct": "%",
		"control.decisions": "count", "control.freq_actuations": "count",
		"control.migrations": "count", "telemetry.collect_s": "s", "featsel.select_s": "s",
		"featsel.features": "count", "models.fit_linear_ms": "ms",
		"models.fit_piecewise_ms": "ms", "models.fit_quadratic_ms": "ms",
		"models.fit_switching_ms": "ms", "core.cv_ms": "ms",
		"traced.p50_ms": "ms", "traced.p90_ms": "ms", "traced.work_per_s": "1/s",
	}
)

// setupRepeats is how many times each workload sets itself up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// bench is one invocation: its arguments, the span ledger (nil when
// untraced), and the report the workload fills in.
type bench struct {
	seed    int64
	seconds time.Duration
	led     *ledger

	attempted, failed int64
	// problems lists correctness failures; any entry makes correct false.
	problems []string
	values   map[string]float64
	samples  map[string]int
	notes    []string
}

func (b *bench) traced() bool { return b.led != nil }

// set records a metric value and the number of samples behind it.
func (b *bench) set(name string, v float64, n int) {
	b.values[name] = v
	b.samples[name] = n
}

// note adds a human-readable line to the report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setup runs fn setupRepeats times, reports the median wall time as
// setup_s and returns the last value fn built. Earlier values are released
// through done, which may be nil.
func setup[T any](b *bench, fn func() (T, error), done func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && done != nil {
			done(last)
			var zero T
			last = zero // let the collector free it before the next set-up
		}
		runtime.GC()
		start := time.Now()
		v, err := fn()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	b.set("setup_s", mathx.Median(times), len(times))
	return last, nil
}

var workloads = map[string]func(*bench) error{
	"stream": runStream,
	"bulk":   runBulk,
	"dc-cap": runDCCap,
	"train":  runTrain,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "stream, bulk, dc-cap or train")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Int("seconds", 10, "measured seconds")
		traceOn  = fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		values: map[string]float64{}, samples: map[string]int{},
	}
	if *traceOn == 1 {
		b.led = newLedger()
	}
	if err := run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.set("mem_mb", peakRSSMiB(), 1)
	if b.traced() {
		if c := b.led.stats()["telemetry.collect"]; c != nil {
			b.set("telemetry.collect_s", float64(c.total)/float64(c.n)/1e9, c.n)
		}
		b.checkCoverage()
		if err := b.led.write(*workload, *seed); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if err := b.print(stdout, *workload); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable report and then the JSON result line.
func (b *bench) print(w io.Writer, workload string) error {
	fmt.Fprintf(w, "workload %s  seed %d  measured %s  traced %v\n", workload, b.seed, b.seconds, b.traced())
	for _, n := range b.notes {
		fmt.Fprintln(w, "  "+n)
	}
	attempted := b.attempted
	if attempted < 1 {
		attempted = 1
		b.fail("no operation attempted")
	}
	fmt.Fprintf(w, "  error_pct = %.4f %% (n=%d, failed %d)\n",
		100*float64(b.failed)/float64(attempted), attempted, b.failed)
	names := endToEnd
	if b.traced() {
		names = perLayer
	}
	res := resultJSON{
		Correct: len(b.problems) == 0 && b.failed == 0, Attempted: attempted, Failed: b.failed,
		Metrics: map[string]metricJSON{},
	}
	for _, n := range names {
		v := b.values[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s is %v", n, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[n] = metricJSON{Value: v, Unit: units[n]}
		fmt.Fprintf(w, "  %s = %s %s (n=%d)\n", n, strconv.FormatFloat(v, 'g', -1, 64), units[n], b.samples[n])
	}
	for _, p := range b.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// orderStat returns the nearest-rank q-quantile of sorted xs: the
// smallest sample with at least q of the samples at or below it.
func orderStat(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latencies sets p50_ms and p90_ms (or their traced counterparts): the
// exact nearest-rank order statistics of each group of per-operation
// samples in milliseconds, then the median across groups. A group is one
// time window (stream, bulk), one capped run (dc-cap) or one build
// (train), so a few seconds of contention from outside the process move
// a few groups rather than the reported figure. The tail is p90, the
// highest percentile with ten samples beyond it in a bulk window (a
// hundred or more batches at --seconds 30); a per-group p99 there rests
// on one or two batches. It also prints p99 over all samples pooled, with
// how many samples lie beyond it.
func (b *bench) latencies(groups [][]float64) {
	var p50s, p90s, all []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		s := append([]float64(nil), g...)
		sort.Float64s(s)
		p50s = append(p50s, orderStat(s, 0.50))
		p90s = append(p90s, orderStat(s, 0.90))
		all = append(all, g...)
	}
	p50, p90 := "p50_ms", "p90_ms"
	if b.traced() {
		p50, p90 = "traced.p50_ms", "traced.p90_ms"
	}
	b.set(p50, mathx.Median(p50s), len(all))
	b.set(p90, mathx.Median(p90s), len(all))
	sort.Float64s(all)
	b.note("per group p50 ms %s", fmtList(p50s))
	b.note("per group p90 ms %s", fmtList(p90s))
	b.note("p99_ms = %.4f ms over all %d samples pooled (%d beyond it)",
		orderStat(all, 0.99), len(all), len(all)-int(math.Ceil(0.99*float64(len(all)))))
}

// work sets work_per_s (or traced.work_per_s) to the median of the
// groups' rates; n is the number of operations behind them.
func (b *bench) work(rates []float64, n int) {
	name := "work_per_s"
	if b.traced() {
		name = "traced.work_per_s"
	}
	b.set(name, mathx.Median(rates), n)
	b.note("per group work/s %s", fmtList(rates))
}

// fits reports whether another operation, taking as long as the mean of
// the done ones so far, would end within the measured seconds.
func fits(origin time.Time, seconds time.Duration, done int) bool {
	el := time.Since(origin)
	return el+el/time.Duration(done) <= seconds
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// newRand is the workload's seeded generator for one purpose (label).
func newRand(seed int64, label string) *mathx.SplitMix64 {
	return mathx.NewSplitMix(mathx.DeriveSeed(seed, "perfbench:"+label))
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// mallocs returns the process's cumulative heap allocation count. Callers
// take the difference around a block in which nothing else runs.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
