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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pas2p/internal/obs"
	"pas2p/internal/obs/obshttp"
	"pas2p/internal/report"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 2, 3, 5, 7, 8, 9, D, E or all")
	scale := flag.Int("scale", 1, "divide process counts by this factor (1 = paper scale)")
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

	opts := report.Options{ProcScale: *scale}
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
			return nil
		})
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
