// Command pas2pd is the PAS2P signature service daemon: an HTTP/JSON
// server exposing the pipeline (analyze a submitted tracefile, sign a
// registered application, look stored signatures up, predict on target
// machines) over a crash-safe signature repository, hardened with
// per-request deadlines, cost-aware load shedding, panic isolation,
// a single-flight analysis cache, and graceful drain on SIGTERM.
//
// Usage:
//
//	pas2pd -repo DIR [-addr HOST:PORT] [-drain-timeout D]
//	       [-heavy-slots N -heavy-queue N -light-slots N -light-queue N]
//	       [-heavy-deadline D -light-deadline D]
//	       [-fault-seed S -faults SPEC -fsfaults SPEC]   (chaos mode)
//	       [-snapshot FILE]
//
// Chaos mode wires a deterministic fault injector into served sign
// runs (-faults, the grammar of pas2p predict -faults: loss=0.05,dup=0.01,...) and
// a fault-injecting filesystem under the repository (-fsfaults:
// torn=0.05,trunc=0.02,flip=0.01). The service's contract holds under
// both: every request either succeeds with a checksum-valid answer or
// fails cleanly with a typed error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pas2p/internal/faults"
	"pas2p/internal/fsx"
	"pas2p/internal/obs"
	"pas2p/internal/service"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil, stop); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "pas2pd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon body, separated from main so tests can drive the
// full lifecycle: ready (when non-nil) fires once the server listens,
// and a value on stop triggers the graceful drain.
func run(args []string, stdout, stderr io.Writer, ready func(*service.Server), stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("pas2pd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8077", "listen address (port 0 picks a free port)")
		repoDir       = fs.String("repo", "", "signature repository directory (required)")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "how long a drain waits for in-flight requests before shedding them")
		heavySlots    = fs.Int("heavy-slots", 0, "concurrent heavy requests (analyze/sign/predict/fsck); 0 = GOMAXPROCS")
		heavyQueue    = fs.Int("heavy-queue", 0, "heavy admission queue bound; 0 = 4x slots, -1 = no queue")
		lightSlots    = fs.Int("light-slots", 0, "concurrent light requests (lookup); 0 = 4x GOMAXPROCS")
		lightQueue    = fs.Int("light-queue", 0, "light admission queue bound; 0 = 8x slots, -1 = no queue")
		heavyDeadline = fs.Duration("heavy-deadline", 30*time.Second, "default deadline for heavy requests")
		lightDeadline = fs.Duration("light-deadline", 2*time.Second, "default deadline for light requests")
		cacheEntries  = fs.Int("cache", 128, "analysis LRU capacity (entries)")
		maxBody       = fs.Int64("max-body", 64<<20, "request body cap in bytes")
		faultSeed     = fs.Int64("fault-seed", 1, "seed for -faults and -fsfaults decisions")
		faultSpec     = fs.String("faults", "", "pipeline fault spec for served sign runs (loss=0.05,dup=0.01,...)")
		fsFaultSpec   = fs.String("fsfaults", "", "storage fault spec under the repository (torn=0.05,trunc=0.02,flip=0.01)")
		snapshotPath  = fs.String("snapshot", "", "write the final metrics snapshot JSON here on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *repoDir == "" {
		return fmt.Errorf("-repo is required")
	}

	cfg := service.Config{
		RepoDir:       *repoDir,
		Observer:      obs.New(),
		HeavySlots:    *heavySlots,
		HeavyQueue:    *heavyQueue,
		LightSlots:    *lightSlots,
		LightQueue:    *lightQueue,
		HeavyDeadline: *heavyDeadline,
		LightDeadline: *lightDeadline,
		CacheEntries:  *cacheEntries,
		MaxBodyBytes:  *maxBody,
	}
	cfg.Observer.Flight = obs.NewFlightRecorder(0)
	if *faultSpec != "" {
		inj, err := faults.ParseSpec(*faultSeed, *faultSpec)
		if err != nil {
			return err
		}
		cfg.Faults = inj
		fmt.Fprintf(stdout, "chaos      : pipeline faults %q (seed %d)\n", *faultSpec, *faultSeed)
	}
	if *fsFaultSpec != "" {
		fscfg, err := faults.ParseFSConfig(*fsFaultSpec)
		if err != nil {
			return err
		}
		fscfg.Seed = *faultSeed
		ffs, err := faults.NewFaultFS(fsx.OS{}, fscfg)
		if err != nil {
			return err
		}
		cfg.FS = ffs
		fmt.Fprintf(stdout, "chaos      : storage faults %q under %s (seed %d)\n", *fsFaultSpec, *repoDir, *faultSeed)
	}

	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	srv, err := service.Listen(*addr, svc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pas2pd     : serving on %s (repo %s)\n", srv.URL(), *repoDir)
	if ready != nil {
		ready(srv)
	}

	sig := <-stop
	if sig != nil {
		fmt.Fprintf(stdout, "pas2pd     : %v received, draining (timeout %v)\n", sig, *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	rep, snap, err := srv.DrainAndShutdown(ctx)
	fmt.Fprintf(stdout, "pas2pd     : drained in %v (%d in flight at start: %d finished, %d shed)\n",
		rep.Waited.Round(time.Millisecond), rep.InFlightAtStart, rep.Finished, rep.Shed)
	if err != nil {
		fmt.Fprintf(stderr, "pas2pd: http shutdown: %v\n", err)
	}
	if *snapshotPath != "" {
		if werr := writeSnapshot(*snapshotPath, snap); werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "pas2pd     : final snapshot written to %s\n", *snapshotPath)
	}
	fmt.Fprintf(stdout, "pas2pd     : served %d requests (%d ok, %d typed errors, %d panics isolated)\n",
		snap.Counters["service.requests"], snap.Counters["service.ok"],
		snap.Counters["service.typed_errors"], snap.Counters["service.panics"])
	return nil
}

// writeSnapshot flushes the final obs snapshot atomically, so a
// half-written file never masquerades as a completed run's telemetry.
func writeSnapshot(path string, snap *obs.Snapshot) error {
	return fsx.WriteFileAtomic(fsx.OS{}, path, func(w io.Writer) error {
		return snap.WriteJSON(w)
	})
}
