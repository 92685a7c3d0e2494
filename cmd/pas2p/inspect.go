package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"pas2p/internal/logical"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// cmdInspect examines a tracefile: header stats, per-process event
// counts, event dumps, and (with -ticks) the logical tick table — the
// debugging view the original tool's users get from visualisers like
// Vampir, folded into the CLI as the paper suggests ("without
// requiring visualization tools").
func cmdInspect(args []string) error {
	fs := newFlagSet("inspect")
	in := fs.String("trace", "", "input tracefile")
	proc := fs.Int("proc", -1, "dump events of this process")
	limit := fs.Int("n", 20, "max events to dump")
	offset := fs.Int("offset", 0, "first event to dump")
	ticks := fs.Bool("ticks", false, "build the logical model and print tick stats")
	phases := fs.Bool("phases", false, "extract phases and print per-phase attribution (pair bias, ETScale)")
	warm := fs.Int("warm", 1, "warm occurrence index for -phases attribution")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect: -trace is required")
	}
	if *offset < 0 {
		return fmt.Errorf("inspect: -offset %d is negative", *offset)
	}
	if *limit < 0 {
		return fmt.Errorf("inspect: -n %d is negative", *limit)
	}
	if *offset > math.MaxInt-*limit {
		return fmt.Errorf("inspect: -offset %d plus -n %d overflows", *offset, *limit)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("inspect: trace fails validation: %w", err)
	}
	st := tr.Stats()
	fmt.Printf("application : %s\n", tr.AppName)
	fmt.Printf("processes   : %d\n", tr.Procs)
	fmt.Printf("events      : %d (%d sends, %d recvs, %d collectives)\n",
		st.Events, st.Sends, st.Recvs, st.Collectives)
	fmt.Printf("volume      : %d bytes\n", st.Bytes)
	fmt.Printf("span        : %.3fs (instrumented virtual AET)\n", tr.AET.Seconds())

	per := tr.PerProcess()
	fmt.Printf("\n%-8s %-8s %-10s %-12s %s\n", "proc", "events", "sends", "computeSum", "lastExit")
	for p, evs := range per {
		var sends int
		var comp vtime.Duration
		var last vtime.Time
		for i := range evs {
			if evs[i].Kind == trace.Send {
				sends++
			}
			comp += evs[i].ComputeBefore
			if evs[i].Exit > last {
				last = evs[i].Exit
			}
		}
		fmt.Printf("%-8d %-8d %-10d %-12.3f %.3fs\n", p, len(evs), sends, comp.Seconds(), last.Seconds())
	}

	if *proc >= 0 {
		if *proc >= tr.Procs {
			return fmt.Errorf("inspect: process %d out of range", *proc)
		}
		evs := per[*proc]
		fmt.Printf("\nevents of process %d [%d..%d):\n", *proc, *offset, *offset+*limit)
		fmt.Printf("%-6s %-6s %-8s %-6s %-10s %-12s %-12s %s\n",
			"num", "kind", "peer", "tag", "size", "enter", "exit", "computeBefore")
		for i := *offset; i < len(evs) && i < *offset+*limit; i++ {
			e := &evs[i]
			fmt.Printf("%-6d %-6s %-8d %-6d %-10d %-12v %-12v %v\n",
				e.Number, e.Kind, e.Peer, e.Tag, e.Size, e.Enter, e.Exit, e.ComputeBefore)
		}
	}

	if *phases {
		res, err := phase.Analyze(context.Background(), logical.SourceFromTrace(tr),
			phase.StreamConfig{Config: phase.DefaultConfig()}, *warm, nil)
		if err != nil {
			return err
		}
		an := res.Analysis
		fmt.Printf("\n%s\n", an.Summary())
		fmt.Printf("per-phase attribution (warm occurrence %d):\n", *warm)
		phase.PrintAttribution(os.Stdout, an.Attribution(*warm))
	}

	if *ticks {
		l, err := logical.Order(tr)
		if err != nil {
			return err
		}
		hist := map[int]int{}
		for _, slots := range l.Ticks {
			hist[len(slots)]++
		}
		fmt.Printf("\nlogical model: %d ticks (mean width %.2f events)\n",
			l.NumTicks(), float64(len(tr.Events))/float64(l.NumTicks()))
		fmt.Println("tick-width histogram (events-at-tick: count):")
		for w := 1; w <= tr.Procs; w++ {
			if hist[w] > 0 {
				fmt.Printf("  %3d: %d\n", w, hist[w])
			}
		}
	}
	return nil
}
