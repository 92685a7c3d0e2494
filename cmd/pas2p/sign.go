package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"pas2p/internal/apps"
	"pas2p/internal/fsx"
	"pas2p/internal/mpi"
	"pas2p/internal/predict"
	"pas2p/internal/signature"
)

// cmdSign runs PAS2P stage A end to end and persists the signature:
// instrument on the base cluster, model, extract phases, construct the
// checkpoints, and write the signature file a later 'execsig' carries
// to target machines.
func cmdSign(args []string) error {
	fs := newFlagSet("sign")
	app := fs.String("app", "", "application name")
	procs := fs.Int("procs", 64, "number of processes")
	workload := fs.String("workload", "", "workload name")
	base := fs.String("base", "A", "base cluster")
	out := fs.String("o", "", "output signature file (default <app>.sig.json)")
	allPhases := fs.Bool("all-phases", false, "capture every phase, not only relevant ones")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("sign: -app is required")
	}
	a, err := apps.Make(*app, *procs, *workload)
	if err != nil {
		return err
	}
	bd, err := deployFor(*base, 0, *procs)
	if err != nil {
		return err
	}
	opts := signature.DefaultOptions()
	opts.AllPhases = *allPhases
	signed, err := predict.Sign(context.Background(), predict.Experiment{
		App: a, Base: bd, EventOverhead: mpi.PAS2PEventOverhead, Signature: opts,
	})
	if err != nil {
		return err
	}
	tb, br := signed.Table, signed.Build
	path := *out
	if path == "" {
		path = *app + ".sig.json"
	}
	err = fsx.WriteFileAtomic(fsx.OS{}, path, func(w io.Writer) error {
		return br.Signature.Save(w, apps.Workload(*app, *workload), bd.Cluster.Name)
	})
	if err != nil {
		return err
	}
	fmt.Printf("analysed %s on %s: %d phases, %d relevant\n",
		*app, bd.Cluster.Name, tb.TotalPhases, len(tb.RelevantRows()))
	fmt.Printf("signature constructed: %d checkpoints, SCT %.2fs (virtual)\n",
		br.Checkpoints, br.SCT.Seconds())
	fmt.Printf("written to %s\n", path)
	return nil
}

// cmdExecSig executes a persisted signature on a target machine and
// prints the prediction (with ground truth unless -no-ground-truth).
func cmdExecSig(args []string) error {
	fs := newFlagSet("execsig")
	in := fs.String("sig", "", "signature file from 'pas2p sign'")
	target := fs.String("target", "B", "target cluster")
	cores := fs.Int("cores", 0, "restrict the target to this many cores")
	noTruth := fs.Bool("no-ground-truth", false, "skip the full target run")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("execsig: -sig is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	saved, err := signature.LoadSaved(f)
	if err != nil {
		return err
	}
	a, err := apps.Make(saved.AppName, saved.Procs, saved.Workload)
	if err != nil {
		return err
	}
	sig, err := saved.Reassemble(a)
	if err != nil {
		return err
	}
	td, err := deployFor(*target, *cores, saved.Procs)
	if err != nil {
		return err
	}
	res, err := sig.Execute(td)
	if err != nil {
		return err
	}
	fmt.Printf("signature  : %s (%d procs, workload %q, built on %s for ISA %s)\n",
		saved.AppName, saved.Procs, saved.Workload, saved.BaseCluster, saved.BaseISA)
	fmt.Printf("target     : %s\n", td)
	fmt.Printf("SET        : %.2fs\n", res.SET.Seconds())
	fmt.Printf("PET (Eq.1) : %.2fs\n", res.PET.Seconds())
	if !*noTruth {
		full, err := mpi.Run(a, mpi.RunConfig{Deployment: td})
		if err != nil {
			return err
		}
		aet := full.Elapsed.Seconds()
		fmt.Printf("AET        : %.2fs  ->  PETE %.2f%% (SET is %.2f%% of AET)\n",
			aet, predict.PETE(res.PET, full.Elapsed), 100*res.SET.Seconds()/aet)
	}
	return nil
}
