// Command perfbench is PAS2P-Go's repeatable benchmark. It runs one
// workload per invocation and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics:
//
//	perfbench -pas2pd BIN -work DIR --workload predict|analyze|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end list of BENCHMARK.json,
// measured untraced; with --trace 1 they are the per-layer list, taken
// from spans the benchmark records around its own calls into each
// layer. run.sh builds the binaries and supplies -pas2pd and -work.
// README.md gives each workload's rationale and the map from layer
// metrics to end-to-end metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what a workload receives: its seed, how long to measure,
// whether this is the traced run, and where to put files.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	pas2pd  string // daemon binary, for serve
	work    string // scratch directory, emptied before the run
	// spans is where the traced run writes the spans it recorded.
	spans string
	log   io.Writer
}

// outcome is a workload's result: operations attempted and failed,
// with failure descriptions, and the metric values by name.
type outcome struct {
	attempted, failed int64
	failures          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// op counts one operation; a non-nil err (a program error or a failed
// output check) counts it as failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, err.Error())
	}
}

// setup records the median set-up's cost: setup_s is its CPU time,
// bench.setup_wall_s its wall time.
func (o *outcome) setup(c cost) {
	o.values["setup_s"] = c.cpu.Seconds()
	o.values["bench.setup_wall_s"] = c.wall.Seconds()
}

// setupRuns is how many times each workload sets up; setup_s is the
// median.
const setupRuns = 5

type workloadFunc func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"predict": runPredict,
	"analyze": runAnalyze,
	"serve":   runServe,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: predict, analyze or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	daemon := fs.String("pas2pd", "", "pas2pd binary (serve workload)")
	work := fs.String("work", "", "scratch directory for the run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *work == "" {
		fmt.Fprintf(stderr, "perfbench: need --workload predict|analyze|serve, --seconds >= 1, --trace 0|1 and -work\n")
		return 2
	}
	if err := os.RemoveAll(*work); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(*work)

	host, _ := json.Marshal(map[string]any{"host": hostShape()}) // strings and ints always marshal
	fmt.Fprintln(stdout, string(host))

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, pas2pd: *daemon, work: *work, log: stderr,
		spans: filepath.Join(filepath.Dir(*work), fmt.Sprintf("spans-%s-%d.json", *name, *seed))}
	out, err := w(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "perfbench: %s: failed: %s\n", *name, f)
	}
	res, err := buildResult(out, e.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult selects the metric list for the run kind. An end-to-end
// metric must be measured and non-zero; a per-layer metric a workload
// does not touch reads 0.
func buildResult(out *outcome, traced bool) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !traced && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = out.failed == 0
	return res, nil
}

// hostShape is recorded with every result: comparisons between hosts
// of different shape are not meaningful.
func hostShape() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process ("self"
// or a pid).
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cost is what one timed operation took: wall time, and the CPU time
// the process spent meanwhile. On a host whose virtual CPUs are shared,
// wall time carries the time the hypervisor gave to other guests; CPU
// time does not.
type cost struct {
	wall, cpu time.Duration
}

func (c cost) plus(d cost) cost { return cost{c.wall + d.wall, c.cpu + d.cpu} }

// measure runs f after a collection that also hands freed memory back
// to the kernel, and returns what f cost. Every timed operation starts
// from the same heap and the same resident set, so the peak resident
// set of a run is the most one operation needed, not that plus whatever
// an earlier one left mapped.
func measure(f func()) cost {
	debug.FreeOSMemory()
	c0, t0 := processCPU(), time.Now()
	f()
	return cost{wall: time.Since(t0), cpu: processCPU() - c0}
}

// processCPU is the user and system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func medianCPUSeconds(cs []cost) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = c.cpu.Seconds()
	}
	return median(xs)
}

func medianWallSeconds(cs []cost) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = c.wall.Seconds()
	}
	return median(xs)
}

// timeSetup runs setup n times, each after a collection, and returns
// what the median set-up cost. A set-up's CPU time is this process's
// plus what others reports for the processes it started (the daemon
// on serve); like pass_cpu_s it leaves out the hypervisor's steal. Every
// run but the last is torn down through the returned cleanup; the last
// one's state is kept for the measurement.
func timeSetup[T any](e *env, n int, setup func() (T, func(), error), others func(T) (time.Duration, error)) (T, cost, error) {
	var (
		last T
		cs   []cost
	)
	for i := 0; i < n; i++ {
		var (
			v       T
			cleanup func()
			err     error
		)
		c := measure(func() { v, cleanup, err = setup() })
		if err == nil && others != nil {
			var o time.Duration
			o, err = others(v)
			c.cpu += o
		}
		if err != nil {
			if cleanup != nil {
				cleanup()
			}
			return last, cost{}, err
		}
		cs = append(cs, c)
		fmt.Fprintf(e.log, "set-up %d: %.3fs wall, cpu %.3fs\n", i+1, c.wall.Seconds(), c.cpu.Seconds())
		if i < n-1 && cleanup != nil {
			cleanup()
		}
		last = v
	}
	return last, cost{wall: time.Duration(medianWallSeconds(cs) * float64(time.Second)),
		cpu: time.Duration(medianCPUSeconds(cs) * float64(time.Second))}, nil
}
