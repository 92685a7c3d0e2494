// Package report regenerates the paper's evaluation tables. Each
// TableN function runs the corresponding experiments through the full
// PAS2P pipeline (instrument → model → phases → signature → predict →
// validate) on the modelled clusters and prints rows with the paper's
// exact columns, returning the structured results for programmatic
// checks (benchmarks assert on shapes: who wins, by what rough factor).
package report

import (
	"fmt"
	"io"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/predict"
	"pas2p/internal/vtime"
)

// Options scales the experiments.
type Options struct {
	// ProcScale divides every experiment's process count (1 = the
	// paper's scale; tests use 4 or 8 to stay fast). Process counts
	// are kept >= 4.
	ProcScale int
	// Observer, when non-nil, instruments every experiment's pipeline
	// (stage spans, counters) — pas2p-bench -serve exposes it live.
	Observer *obs.Observer
}

// DefaultOptions runs at the paper's process counts.
func DefaultOptions() Options {
	return Options{ProcScale: 1}
}

func (o Options) scale(procs int) int {
	if o.ProcScale <= 1 {
		return procs
	}
	p := procs / o.ProcScale
	if p < 4 {
		p = 4
	}
	return p
}

// clusterT abbreviates the machine model type in the table drivers.
type clusterT = machine.Cluster

// clusterByName resolves a Table 2 preset ("A".."D"); it panics on an
// unknown name because the drivers only use fixed names.
func clusterByName(name string) *clusterT {
	c := machine.ByName(name)
	if c == nil {
		panic("report: unknown cluster " + name)
	}
	return c
}

// deploy builds a block-mapped deployment, oversubscribing when ranks
// exceed cores.
func deploy(c *machine.Cluster, ranks int) (*machine.Deployment, error) {
	return machine.NewDeployment(c, ranks, machine.MapBlock)
}

// runExperiment instantiates an app and runs the Fig. 12 loop.
func runExperiment(name string, procs int, workload string,
	base, target *machine.Deployment, opts Options) (*predict.Outcome, error) {
	app, err := apps.Make(name, procs, workload)
	if err != nil {
		return nil, err
	}
	return predict.Run(predict.Experiment{
		App:           app,
		Base:          base,
		Target:        target,
		EventOverhead: mpi.PAS2PEventOverhead,
		Observer:      opts.Observer,
	})
}

// Table2 prints the modelled cluster characteristics.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "TABLE 2: Clusters Characteristics (modelled)")
	fmt.Fprintf(w, "%-10s %-6s %-7s %-11s %-10s %-9s %-14s %s\n",
		"Cluster", "Cores", "ISA", "Cores/Node", "GFLOPS/c", "MemCont", "Network", "Lat/BW")
	for _, c := range machine.Presets() {
		net := "GigE"
		if c.Interconnect.Bandwidth > 5e8 {
			net = "InfiniBand"
		}
		fmt.Fprintf(w, "%-10s %-6d %-7s %-11d %-10.2f %-9.2f %-14s %v/%.0fMBps\n",
			c.Name, c.Cores(), c.ISA, c.CoresPerNode, c.CoreGFLOPS, c.MemContention,
			net, c.Interconnect.Latency, c.Interconnect.Bandwidth/1e6)
	}
}

// fmtSec prints seconds with two decimals, as the paper's tables do.
func fmtSec(d vtime.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
