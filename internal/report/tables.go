package report

import (
	"fmt"
	"io"

	"pas2p/internal/predict"
)

// PredRow is one row of a Table 5/7-style prediction table.
type PredRow struct {
	App     string
	Procs   int
	Cores   int
	Outcome *predict.Outcome
}

// predSpec declares one prediction experiment.
type predSpec struct {
	app      string
	procs    int
	workload string
	cores    []int // target core counts
}

// table4Specs mirrors the paper's Table 4 (base machine A): 64-process
// NPB CG/BT/SP/LU class C, 32-process Sweep3D (sweep.250, 13
// iterations), 64-process SMG2000 (-n 200 solver 3) and the synthetic
// 150-step POP.
func table4Specs() []predSpec {
	return []predSpec{
		{app: "cg", procs: 64, workload: "classC", cores: []int{32, 64}},
		{app: "bt", procs: 64, workload: "classC", cores: []int{32, 64}},
		{app: "sp", procs: 64, workload: "classC", cores: []int{32, 64}},
		{app: "lu", procs: 64, workload: "classC", cores: []int{32, 64}},
		{app: "smg2000", procs: 64, workload: "-n 200 solver 3", cores: []int{32, 64}},
		{app: "sweep3d", procs: 32, workload: "sweep.250 13", cores: []int{16, 32}},
		{app: "pop", procs: 64, workload: "synthetic150", cores: []int{32, 64}},
	}
}

// table6Specs mirrors Table 6 (base machine C): 256 processes, NPB
// class D, SMG2000 with 1200 iterations, sweep.200.
func table6Specs() []predSpec {
	return []predSpec{
		{app: "cg", procs: 256, workload: "classD", cores: []int{128}},
		{app: "bt", procs: 256, workload: "classD", cores: []int{128}},
		{app: "sp", procs: 256, workload: "classD", cores: []int{128}},
		{app: "lu", procs: 256, workload: "classD", cores: []int{128}},
		{app: "smg2000", procs: 256, workload: "-n 200 solver 3 iterations 1200", cores: []int{128}},
		{app: "sweep3d", procs: 256, workload: "sweep.200 13", cores: []int{128}},
	}
}

// runPredTable executes one prediction table: build the signature on
// the base cluster at the spec's process count, then execute it on the
// target cluster restricted to each core count (oversubscribing when
// processes exceed cores, exactly as the paper's Table 7 does).
func runPredTable(w io.Writer, title string, specs []predSpec,
	baseName, targetName string, opts Options) ([]PredRow, error) {
	base := clusterByName(baseName)
	target := clusterByName(targetName)
	fmt.Fprintf(w, "%s (base %s -> target %s)\n", title, base.Name, target.Name)
	fmt.Fprintf(w, "%-14s %-6s %-9s %-11s %-10s %-8s %-10s\n",
		"Appl.", "Cores", "SET(s)", "SETvsAET%", "PET(s)", "PETE%", "AET(s)")
	var rows []PredRow
	for _, sp := range specs {
		procs := opts.scale(sp.procs)
		bd, err := deploy(base, procs)
		if err != nil {
			return nil, err
		}
		for _, cores := range sp.cores {
			c := cores / maxInt(opts.ProcScale, 1)
			tc, err := shrinkToCores(target, c)
			if err != nil {
				return nil, err
			}
			td, err := deploy(tc, procs)
			if err != nil {
				return nil, err
			}
			out, err := runExperiment(sp.app, procs, sp.workload, bd, td, opts)
			if err != nil {
				return nil, fmt.Errorf("%s-%d on %d cores: %w", sp.app, procs, c, err)
			}
			fmt.Fprintf(w, "%-14s %-6d %-9s %-11.2f %-10s %-8.2f %-10s\n",
				fmt.Sprintf("%s-%d", sp.app, procs), c,
				fmtSec(out.SET), out.SETvsAETPercent,
				fmtSec(out.PET), out.PETEPercent, fmtSec(out.AETTarget))
			rows = append(rows, PredRow{App: sp.app, Procs: procs, Cores: c, Outcome: out})
		}
	}
	printPredSummary(w, rows)
	return rows, nil
}

// shrinkToCores restricts a cluster to roughly the requested cores,
// rounding up to whole nodes (at least one), and names the result
// after the cores it keeps.
func shrinkToCores(c *clusterT, cores int) (*clusterT, error) {
	cc := *c
	if err := cc.Restrict(max(cores, 1)); err != nil {
		return nil, err
	}
	cc.Name = fmt.Sprintf("%s[%d cores]", c.Name, cc.Cores())
	return &cc, nil
}

func printPredSummary(w io.Writer, rows []PredRow) {
	if len(rows) == 0 {
		return
	}
	var sumPETE, sumSETfrac float64
	for _, r := range rows {
		sumPETE += r.Outcome.PETEPercent
		sumSETfrac += r.Outcome.SETvsAETPercent
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "Average prediction accuracy: %.2f%%  |  average SET/AET: %.2f%%\n\n",
		100-sumPETE/n, sumSETfrac/n)
}

// Table5 reproduces the paper's Table 5: signatures built on cluster A
// with the Table 4 workloads, predictions for cluster B at two core
// counts each.
func Table5(w io.Writer, opts Options) ([]PredRow, error) {
	return runPredTable(w, "TABLE 5: Predictions for Cluster B (Target Machine)",
		table4Specs(), "A", "B", opts)
}

// Table7 reproduces Table 7: signatures built on cluster C with the
// Table 6 workloads (256 processes), predictions for cluster A's 128
// cores with two processes per core.
func Table7(w io.Writer, opts Options) ([]PredRow, error) {
	return runPredTable(w, "TABLE 7: Predictions for Cluster A (Target Machine)",
		table6Specs(), "C", "A", opts)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
