// Command pas2p-bench regenerates the paper's evaluation tables on the
// modelled clusters. Each -table flag value runs the corresponding
// experiment set end to end (instrument -> model -> phases ->
// signature -> predict -> validate) and prints rows with the paper's
// columns; -table all regenerates everything, which is what
// EXPERIMENTS.md records.
//
// Absolute numbers come from this repository's simulated substrate, so
// they are compared with the paper by *shape* (who wins, rough
// factors, orderings), not by matching seconds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pas2p/internal/obs"
	"pas2p/internal/obs/obshttp"
	"pas2p/internal/report"
	"pas2p/internal/vtime"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 2, 3, 5, 7, 8, 9, D, E or all")
	scale := flag.Int("scale", 1, "divide process counts by this factor (1 = paper scale)")
	overhead := flag.Duration("overhead", 8*time.Microsecond, "per-event instrumentation overhead")
	par := flag.Bool("parallel", false, "score phase candidates on a worker pool")
	jsonOut := flag.String("json", "", "write the table 8/9 rows plus the block-codec sweep as machine-readable benchmark JSON")
	codecEvents := flag.Int("codec-events", 1_000_000, "event count for the codec sweep recorded in -json output")
	streamEvents := flag.Int64("stream-events", 1_000_000, "event count for the out-of-core streaming scale point in -json output (0 disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	serve := flag.String("serve", "", "serve live telemetry while the tables regenerate, e.g. 127.0.0.1:9090 (port 0 picks one)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pas2p-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pas2p-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	opts := report.Options{
		ProcScale:      *scale,
		EventOverhead:  vtime.FromSeconds(overhead.Seconds()),
		ParallelPhases: *par,
	}
	if *serve != "" {
		o := obs.New()
		o.Flight = obs.NewFlightRecorder(0)
		s, err := obshttp.Serve(*serve, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pas2p-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: serving on %s\n", s.URL())
		opts.Observer = o
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if snap, err := s.Shutdown(ctx); err == nil {
				fmt.Printf("telemetry: stopped after %d scrapes (%d spans)\n",
					snap.Counters["serve.scrapes"], snap.SpansTotal)
			}
		}()
	}
	w := os.Stdout
	start := time.Now()

	run := func(name string, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "pas2p-bench: table %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "[table %s regenerated in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	want := func(n string) bool { return *table == "all" || *table == n }

	if want("2") {
		run("2", func() error { report.Table2(w); fmt.Fprintln(w); return nil })
	}
	if want("3") {
		run("3", func() error { _, err := report.Table3(w, opts); return err })
	}
	if want("5") {
		run("5", func() error { _, err := report.Table5(w, opts); return err })
	}
	if want("7") {
		run("7", func() error { _, err := report.Table7(w, opts); return err })
	}
	if want("d") || want("D") {
		run("D", func() error { _, err := report.AppendixD(w, opts); return err })
	}
	if want("e") || want("E") {
		run("E", func() error { _, err := report.AppendixE(w, opts); return err })
	}
	if want("8") || want("9") {
		run("8+9", func() error {
			rows, err := report.RunPerf(opts)
			if err != nil {
				return err
			}
			if want("8") {
				report.Table8(w, rows)
			}
			if want("9") {
				report.Table9(w, rows)
			}
			if *jsonOut != "" {
				fmt.Fprintf(w, "running block-codec sweep (%d events)...\n", *codecEvents)
				codec, err := runCodecBench(*codecEvents, []int{1, 2, 4, 8})
				if err != nil {
					return err
				}
				fmt.Fprintln(w, "running observer-overhead benchmark (instrumented vs nil observer)...")
				obsRes, err := runObsBench("cg", 8, 3)
				if err != nil {
					return err
				}
				printObsBench(obsRes)
				var stream []streamResult
				if *streamEvents > 0 {
					fmt.Fprintf(w, "running out-of-core streaming scale point (%d events)...\n", *streamEvents)
					sr, err := runStreamBench(*streamEvents)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, "  streamed %d events in %v (%.0f events/s), peak heap %d MiB\n",
						sr.Events, time.Duration(sr.ElapsedNS).Round(time.Millisecond),
						sr.EventsPerSec, sr.PeakHeapBytes>>20)
					stream = append(stream, sr)
				}
				if err := writeBenchJSON(*jsonOut, rows, codec, obsRes, stream); err != nil {
					return err
				}
				fmt.Fprintf(w, "benchmark rows written to %s\n", *jsonOut)
			}
			return nil
		})
	} else if *jsonOut != "" {
		fmt.Fprintln(os.Stderr, "pas2p-bench: -json needs the table 8/9 experiment set (-table 8, 9 or all)")
	}
	fmt.Fprintf(w, "[pas2p-bench completed in %v]\n", time.Since(start).Round(time.Millisecond))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pas2p-bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pas2p-bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// benchRow is the machine-readable form of one table 8/9 row: the
// host-side cost of the full pipeline (ns/op, B/op) next to the
// prediction quality it bought.
type benchRow struct {
	App         string  `json:"app"`
	Ranks       int     `json:"ranks"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocBytes  int64   `json:"alloc_bytes_per_op"`
	PETSeconds  float64 `json:"pet_seconds"`
	AETSeconds  float64 `json:"aet_seconds"`
	PETEPercent float64 `json:"pete_percent"`
}

// benchDoc is the combined -json document: the environment the numbers
// were taken on, the pipeline rows, and the block-codec sweep. Absolute
// throughput depends on the host — cpus and gomaxprocs say how much
// parallel speedup was even available, and let tooling refuse to
// compare documents taken on different host shapes.
type benchDoc struct {
	Host struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		CPUs       int    `json:"cpus"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	Pipeline []benchRow     `json:"pipeline"`
	Codec    []codecResult  `json:"codec"`
	Obs      obsResult      `json:"obs_overhead"`
	Stream   []streamResult `json:"stream,omitempty"`
}

func writeBenchJSON(path string, rows []report.PerfRow, codec []codecResult, obsRes obsResult, stream []streamResult) error {
	var doc benchDoc
	doc.Host.GoVersion = runtime.Version()
	doc.Host.GOOS = runtime.GOOS
	doc.Host.GOARCH = runtime.GOARCH
	doc.Host.CPUs = runtime.NumCPU()
	doc.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Codec = codec
	doc.Obs = obsRes
	doc.Stream = stream
	doc.Pipeline = make([]benchRow, 0, len(rows))
	for _, r := range rows {
		doc.Pipeline = append(doc.Pipeline, benchRow{
			App: r.App, Ranks: r.Procs,
			NsPerOp: r.WallNS, AllocBytes: r.AllocBytes,
			PETSeconds:  r.Outcome.PET.Seconds(),
			AETSeconds:  r.Outcome.AETTarget.Seconds(),
			PETEPercent: r.Outcome.PETEPercent,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(&doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
