// Command pas2p is the command-line front end of the PAS2P tool: it
// traces applications on modelled clusters, analyses traces into
// phases, constructs signatures and predicts execution times on target
// machines, mirroring the workflow of the original tool described in
// the paper.
//
// Usage:
//
//	pas2p apps                               list applications and workloads
//	pas2p clusters                           list modelled clusters (Table 2)
//	pas2p trace    -app cg -procs 64 ...     instrument a run, write a tracefile
//	pas2p analyze  -trace cg.pas2p ...       extract phases, print the phase table
//	pas2p aet      -app cg -cluster B ...    run the full application (ground truth)
//	pas2p predict  -app cg -base A -target B full pipeline: signature + prediction
//	pas2p predict  -app cg -faults crash=0.1 -verify  the same under seeded faults
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// A panic mid-run must not take the flight recorder's event tail
	// with it: dump the retained events before re-panicking.
	defer func() {
		if r := recover(); r != nil {
			dumpFlight()
			panic(r)
		}
	}()
	var err error
	switch os.Args[1] {
	case "apps":
		err = cmdApps(os.Args[2:])
	case "clusters":
		err = cmdClusters(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "render":
		err = cmdRender(os.Args[2:])
	case "aet":
		err = cmdAET(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "sign":
		err = cmdSign(os.Args[2:])
	case "execsig":
		err = cmdExecSig(os.Args[2:])
	case "repo":
		err = cmdRepo(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pas2p: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		dumpFlight()
		fmt.Fprintf(os.Stderr, "pas2p: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `pas2p — parallel application signatures for performance prediction

commands:
  apps                          list registered applications and workloads
  clusters                      print the modelled clusters (paper Table 2)
  trace    -app A -procs N [-workload W] [-cluster C] [-o FILE]
                                instrument a run and write the tracefile
  analyze  -trace FILE [-o TABLE.json] [-metrics FILE]
           [-timeline FILE] [-prom FILE] [-faults skew=...,drift=...]
           [-serve ADDR]
                                build the model, extract phases, print the
                                phase table (paper Fig. 7); -serve exposes
                                live /metrics, /spans, /flight, /timeline
                                and /debug/pprof over HTTP during the run
  inspect  -trace FILE [-proc P] [-n N] [-ticks]
                                examine a tracefile: stats, event dumps,
                                logical tick table
  render   -trace FILE [-o OUT.svg] [-from D -to D]
                                draw the tracefile as an SVG timeline
  aet      -app A -procs N [-workload W] [-cluster C] [-cores K]
                                run the full application for its AET
  predict  -app A -procs N [-workload W] -base B -target T [-cores K]
           [-all-phases] [-no-ground-truth] [-faults SPEC -seed S -verify]
           [-metrics FILE] [-prom FILE] [-timeline FILE] [-serve ADDR]
                                construct the signature on the base cluster,
                                execute it on the target, print the Fig. 11
                                schedule and the predicted AET and (with a
                                ground-truth run) the error; -faults injects
                                seeded message loss/dup/delay, restart
                                crashes and clock jitter, -verify re-runs
                                and requires the identical outcome; the
                                telemetry flags add a per-stage span report
                                and write metrics or a Perfetto timeline
  sign     -app A -procs N [-workload W] [-base B] [-o SIG.json]
                                stage A only: build the signature once and
                                persist it
  execsig  -sig SIG.json [-target T] [-cores K]
                                stage B only: carry a persisted signature to
                                a target machine and predict there
  repo     add|list|predict|fsck -dir D ...
                                manage a site-wide signature repository (the
                                scheduler metadata store of the paper's §1);
                                add -verify re-reads the entry after writing,
                                fsck quarantines corrupt entries and rebuilds
                                the manifest
`)
}
