// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// The seed fixes the inputs and -seconds the number of operations (the
// workload's nominal rate times the seconds), so a run's work does not
// depend on how fast the machine is. Every run checks its outputs outside
// the timed phase. With -trace 0 the last line of standard output is a JSON
// object carrying the end-to-end metrics; with -trace 1 the run continues
// with one traced operation that calls each layer's public functions
// directly, and the object carries the per-layer metrics instead. The line
// before it stamps the run's provenance. README.md lists the workloads, the
// metrics and which end-to-end number each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	rate   float64 // operations per requested second, on the reference box
	min    int     // fewest operations a run makes
	setups int     // set-ups per run; setup_s is their median
	run    func(*run) error
}

var workloads = []workload{
	{"paper-sweep", 1.5, 3, 9, paperSweep},
	{"scale10k", 2.6, 5, 5, func(r *run) error { return scaleRuns(r, 0) }},
	{"scale10k-shard2", 1.1, 3, 3, func(r *run) error { return scaleRuns(r, 2) }},
	{"serve-mixed", 900, 12000, 9, serveMixed},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is one benchmark run: its inputs and what it measured.
type run struct {
	ctx     context.Context
	seed    int64
	ops     int // planned measured operations
	setups  int
	trace   bool
	workdir string

	ref       *reference // host speed samples, taken before each set-up and operation
	setup     []float64  // seconds per set-up
	lat       []float64  // milliseconds per measured operation (serve-mixed: per hot-key hit)
	completed int        // measured operations that succeeded
	attempted int
	failed    int
	problems  []string           // failed correctness checks
	layer     map[string]float64 // per-layer metrics of the traced run
	rec       *recorder          // spans of the traced run
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// quiesce readies the process for a measurement: a collection gives every
// set-up and operation the same heap to start from, so that one's garbage
// is not collected on the next one's clock, and a reference sample measures
// the host's speed.
func (r *run) quiesce() error {
	runtime.GC()
	return r.ref.sample()
}

// timeSetup runs fn as one set-up.
func (r *run) timeSetup(fn func() error) error {
	if err := r.quiesce(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())
	return nil
}

// timeOp runs op as one measured operation.
func (r *run) timeOp(op func() error) error {
	r.attempted++
	if err := r.quiesce(); err != nil {
		r.failed++
		return err
	}
	t0 := time.Now()
	if err := op(); err != nil {
		r.failed++
		return err
	}
	d := time.Since(t0)
	r.lat = append(r.lat, float64(d)/1e6)
	r.completed++
	return nil
}

// traceMem runs fn and records the Go runtime's allocation and collection
// work over it.
func (r *run) traceMem(fn func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	r.layer["go.alloc_mb"] = float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
	r.layer["go.gc_cycles"] = float64(b.NumGC - a.NumGC)
	r.layer["go.gc_pause_ms"] = float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
	return err
}

// traceOverhead records the cost of tracing: the traced operation's time
// against the untraced one, both in milliseconds.
func (r *run) traceOverhead(traced, untraced float64) {
	r.layer["trace.overhead_ms"] = traced - untraced
	r.layer["trace.overhead_frac"] = traced/untraced - 1
}

// seedBase maps the workload seed to the first simulation seed of the
// run's inputs: one splitmix64 round, so that neighbouring workload seeds
// give unrelated ranges, cut to 40 bits so that the ranges never wrap.
func seedBase(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 24)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "nominal measuring time, which fixes the number of operations")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics instead of end-to-end ones")
	workdir := fs.String("workdir", ".bench_build", "directory for the server's store and the span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s, -trace 0 or 1 and -seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ref, err := newReference()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &run{
		seed:    *seed,
		ops:     max(w.min, int(math.Ceil(*seconds*w.rate))),
		setups:  w.setups,
		trace:   *trace == 1,
		workdir: *workdir,
		layer:   map[string]float64{},
		ref:     ref,
	}
	prov := stamp(w.name, r, *seconds)

	// The watchdog: every phase stops at the context's deadline, and a
	// phase that ignores it cannot hold the run past the timer.
	budget := time.Duration(min(150, 30+5**seconds) * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	r.ctx = ctx
	var emitOnce sync.Once
	emit := func(res result) {
		emitOnce.Do(func() {
			line, _ := json.Marshal(map[string]provenance{"provenance": prov})
			fmt.Fprintf(stdout, "%s\n", line)
			line, _ = json.Marshal(res)
			fmt.Fprintf(stdout, "%s\n", line)
		})
	}
	hard := time.AfterFunc(budget+15*time.Second, func() {
		fmt.Fprintf(stderr, "perfbench: watchdog: %s still running %v past its %v budget; aborting\n", w.name, 15*time.Second, budget)
		emit(result{Attempted: r.ops, Failed: r.ops, Metrics: map[string]metric{}})
		os.Exit(3)
	})
	err = w.run(r)
	hard.Stop()

	res := result{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "perfbench: watchdog: %s exceeded its %v budget after %d of %d operations\n", w.name, budget, r.completed, r.ops)
		} else {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		}
		res.Attempted = max(res.Attempted, r.ops)
		res.Failed = max(res.Failed, r.ops-r.completed, 1)
	} else {
		defs := endToEnd
		scale := r.ref.scale()
		fmt.Fprintf(stderr, "perfbench: reference sample %.2f ms (median of %d); set-up %.4f s and operation %.4f ms as measured, times %.4f\n",
			median(r.ref.ms), len(r.ref.ms), median(r.setup), median(r.lat), scale)
		values := map[string]float64{
			"setup_s":        median(r.setup) * scale,
			"op_p50_norm_ms": median(r.lat) * scale,
			"peak_rss_mb":    peakRSSMB(),
		}
		if r.trace {
			r.layer["host.ref_pass_ms"] = median(r.ref.ms)
			r.layer["raw.setup_s"] = median(r.setup)
			r.layer["raw.op_p50_ms"] = median(r.lat)
			defs, values = perLayer, r.layer
			for name := range values {
				if _, ok := unitOf(perLayer, name); !ok {
					r.problem("metric %s is not in the per-layer catalog", name)
				}
			}
		}
		for _, d := range defs {
			v := values[d.name] // absent: the workload bypasses the layer
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.problem("metric %s is %v", d.name, v)
				v = 0
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	if r.trace && r.rec != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		if werr := writeSpans(path, prov, r.rec.snapshot()); werr != nil {
			r.problem("writing spans: %v", werr)
		}
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	res.Correct = err == nil && len(r.problems) == 0 && res.Failed == 0
	emit(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
