package report

import (
	"fmt"
	"io"
	"sort"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/predict"
)

// T3Result carries the Table 3 data: the Moldy analysis on cluster C.
type T3Result struct {
	Procs          int
	TFSizeBytes    int64
	TFATSeconds    float64
	Total          int
	Relevant       int
	Rows           []T3PhaseRow
	AETSeconds     float64
	SETSeconds     float64
	PredictSeconds float64
}

// T3PhaseRow is one relevant phase's line.
type T3PhaseRow struct {
	PhaseID      int
	PhaseET      float64 // seconds, measured by the signature
	Weight       int
	Contribution float64 // PhaseET * Weight, seconds
}

// Table3 reproduces the paper's Table 3: analyse MD Moldy (tip4p) on
// cluster C, list the relevant phases with their weights and measured
// execution times, and compare the signature's prediction with the
// application execution time.
func Table3(w io.Writer, opts Options) (*T3Result, error) {
	procs := opts.scale(256)
	cl := clusterByName("C")
	d, err := deploy(cl, procs)
	if err != nil {
		return nil, err
	}
	app, err := apps.Make("moldy", procs, "tip4p")
	if err != nil {
		return nil, err
	}
	out, err := predict.Run(predict.Experiment{
		App: app, Base: d, Target: d, EventOverhead: mpi.PAS2PEventOverhead,
		Observer: opts.Observer,
	})
	if err != nil {
		return nil, err
	}
	res := &T3Result{
		Procs:          procs,
		TFSizeBytes:    out.TFSize,
		TFATSeconds:    out.TFAT.Seconds(),
		Total:          out.Total,
		Relevant:       out.Relevant,
		AETSeconds:     out.AETTarget.Seconds(),
		SETSeconds:     out.SET.Seconds(),
		PredictSeconds: out.PET.Seconds(),
	}
	for _, m := range out.Phases {
		res.Rows = append(res.Rows, T3PhaseRow{
			PhaseID:      m.PhaseID,
			PhaseET:      m.ET.Seconds(),
			Weight:       m.Weight,
			Contribution: m.Contribution().Seconds(),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].PhaseID < res.Rows[j].PhaseID })

	fmt.Fprintln(w, "TABLE 3: Extraction and Execution of Phases on Cluster C")
	fmt.Fprintf(w, "MD Moldy analysis — processes: %d, input data: tip4p\n", procs)
	fmt.Fprintf(w, "Size of log trace: %.1f MB\n", float64(res.TFSizeBytes)/1e6)
	fmt.Fprintf(w, "Time to analyze the log trace: %.2f sec\n", res.TFATSeconds)
	fmt.Fprintf(w, "Total of phases: %d, Relevant phases: %d\n", res.Total, res.Relevant)
	fmt.Fprintf(w, "%-10s %-14s %-10s %s\n", "Phase ID", "PhaseET(s)", "Weight", "(PhaseET)x(Weight)(s)")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10d %-14.6f %-10d %.2f\n", r.PhaseID, r.PhaseET, r.Weight, r.Contribution)
	}
	fmt.Fprintf(w, "Application Execution Time (s): %.2f\n", res.AETSeconds)
	fmt.Fprintf(w, "Signature Execution Time  (s): %.2f\n\n", res.SETSeconds)
	return res, nil
}

// PerfRow is one row of Tables 8 and 9 (tool performance on cluster C).
type PerfRow struct {
	App     string
	Procs   int
	Outcome *predict.Outcome
}

// perfSpecs mirrors the §6 experiment set: NAS class D, sweep.150, and
// SMG2000 with 550 iterations at 128 processes, all on cluster C.
func perfSpecs() []predSpec {
	return []predSpec{
		{app: "cg", procs: 128, workload: "classD"},
		{app: "bt", procs: 128, workload: "classD"},
		{app: "sp", procs: 128, workload: "classD"},
		{app: "lu", procs: 128, workload: "classD"},
		{app: "ft", procs: 128, workload: "classD"},
		{app: "sweep3d", procs: 128, workload: "sweep.150 13"},
		{app: "smg2000", procs: 128, workload: "-n 200 solver 3 iterations 550"},
	}
}

// RunPerf executes the §6 experiment set once; Table8 and Table9 are
// two views of its results.
func RunPerf(opts Options) ([]PerfRow, error) {
	cl := clusterByName("C")
	var rows []PerfRow
	for _, sp := range perfSpecs() {
		procs := opts.scale(sp.procs)
		d, err := machine.NewDeployment(cl, procs, machine.MapBlock)
		if err != nil {
			return nil, err
		}
		out, err := runExperiment(sp.app, procs, sp.workload, d, d, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.app, err)
		}
		rows = append(rows, PerfRow{App: sp.app, Procs: procs, Outcome: out})
	}
	return rows, nil
}

// Table8 prints tool performance: tracefile size, analysis time, phase
// counts and signature construction time.
func Table8(w io.Writer, rows []PerfRow) {
	fmt.Fprintln(w, "TABLE 8: Performance of the PAS2P Tool (phases + signature construction)")
	fmt.Fprintf(w, "%-10s %-10s %-10s %-13s %-16s %s\n",
		"Appl.", "TFSize", "TFAT(s)", "Total Phases", "Relevant Phases", "SCT(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-10s %-10.3f %-13d %-16d %s\n",
			r.App, fmtBytes(r.Outcome.TFSize), r.Outcome.TFAT.Seconds(),
			r.Outcome.Total, r.Outcome.Relevant, fmtSec(r.Outcome.SCT))
	}
	fmt.Fprintln(w)
}

// Table9 prints the end-to-end overhead view: AET vs instrumented AET
// vs SET, and the paper's overhead factor.
func Table9(w io.Writer, rows []PerfRow) {
	fmt.Fprintln(w, "TABLE 9: Time Required to Obtain the Signature and Predict")
	fmt.Fprintf(w, "%-10s %-12s %-14s %-10s %s\n",
		"Appl.", "AET(s)", "AETPAS2P(s)", "SET(s)", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-12s %-14s %-10s %.2fX\n",
			r.App, fmtSec(r.Outcome.AETBase), fmtSec(r.Outcome.AETPAS2P),
			fmtSec(r.Outcome.SET), r.Outcome.OverheadFactor)
	}
	fmt.Fprintln(w)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
