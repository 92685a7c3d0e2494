package main

import (
	"context"
	"fmt"

	"pas2p/internal/apps"
	"pas2p/internal/mpi"
	"pas2p/internal/predict"
	"pas2p/internal/sigrepo"
)

// cmdRepo manages a site-wide signature repository: the "performance
// metadata" store §1 of the paper proposes for schedulers.
//
//	pas2p repo -dir D add  -app A -procs N [-workload W] [-base B] [-verify]
//	pas2p repo -dir D list
//	pas2p repo -dir D predict -app A -procs N [-workload W] -target T [-cores K]
//	pas2p repo -dir D fsck
func cmdRepo(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("repo: need a subcommand (add, list, predict, fsck)")
	}
	// The -dir flag may come before or after the subcommand; accept
	// the common form `repo <sub> -dir ...`.
	sub := args[0]
	rest := args[1:]
	fs := newFlagSet("repo " + sub)
	dir := fs.String("dir", "pas2p-repo", "repository directory")
	app := fs.String("app", "", "application name")
	procs := fs.Int("procs", 64, "number of processes")
	workload := fs.String("workload", "", "workload name")
	base := fs.String("base", "A", "base cluster (for add)")
	target := fs.String("target", "B", "target cluster (for predict)")
	cores := fs.Int("cores", 0, "restrict the target to this many cores")
	verify := fs.Bool("verify", false, "after add, re-read the entry and verify its checksums")
	keepTrace := fs.Bool("keep-trace", false, "also store the traced run's tracefile in the repository (for add)")
	if err := parseArgs(fs, rest); err != nil {
		return err
	}
	switch sub {
	case "add", "list", "fsck", "predict":
	default:
		return fmt.Errorf("repo: unknown subcommand %q (add, list, predict, fsck)", sub)
	}
	repo, err := sigrepo.Open(*dir)
	if err != nil {
		return err
	}

	switch sub {
	case "add":
		if *app == "" {
			return fmt.Errorf("repo add: -app is required")
		}
		a, err := apps.Make(*app, *procs, *workload)
		if err != nil {
			return err
		}
		bd, err := deployFor(*base, 0, *procs)
		if err != nil {
			return err
		}
		signed, err := predict.Sign(context.Background(), predict.Experiment{
			App: a, Base: bd, EventOverhead: mpi.PAS2PEventOverhead,
		})
		if err != nil {
			return err
		}
		tb, br := signed.Table, signed.Build
		path, err := repo.Add(br.Signature, *workload, bd.Cluster.Name)
		if err != nil {
			return err
		}
		fmt.Printf("added %s (%d relevant phases, SCT %.2fs) -> %s\n",
			*app, len(tb.RelevantRows()), br.SCT.Seconds(), path)
		if *keepTrace {
			// Sign analysed its recording as the run wrote it and kept
			// none of it, so the tracefile comes from a second traced
			// run, configured as Sign's: the simulator is deterministic,
			// so it records the same events.
			traced, err := mpi.Run(a, mpi.RunConfig{Deployment: bd, Trace: true, EventOverhead: mpi.PAS2PEventOverhead})
			if err != nil {
				return err
			}
			tpath, err := repo.AddTrace(traced.Recording.Trace(), *workload)
			if err != nil {
				return err
			}
			fmt.Printf("stored tracefile (%d events) -> %s\n", traced.Recording.Meta().Events, tpath)
		}
		if *verify {
			if _, err := repo.Lookup(*app, *procs, *workload); err != nil {
				return fmt.Errorf("repo add -verify: %w", err)
			}
			if *keepTrace {
				// Streaming verification: every block CRC and the file
				// CRC are checked without materialising the events.
				if _, err := repo.LookupTrace(*app, *procs, *workload); err != nil {
					return fmt.Errorf("repo add -verify: %w", err)
				}
			}
			fmt.Println("verified: entry re-read and checksums hold")
		}
		return nil

	case "list":
		entries, traces, problems, err := repo.List()
		if err != nil {
			return err
		}
		if len(entries) == 0 && len(traces) == 0 && len(problems) == 0 {
			fmt.Println("repository is empty")
			return nil
		}
		if len(entries) > 0 {
			fmt.Printf("%-14s %-7s %-24s %-12s %-8s %s\n",
				"APP", "PROCS", "WORKLOAD", "BUILT ON", "ISA", "PHASES")
			for _, e := range entries {
				fmt.Printf("%-14s %-7d %-24s %-12s %-8s %d/%d relevant\n",
					e.Saved.AppName, e.Saved.Procs, e.Saved.Workload,
					e.Saved.BaseCluster, e.Saved.BaseISA,
					len(e.Saved.Table.RelevantRows()), e.Saved.Table.TotalPhases)
			}
		}
		if len(traces) > 0 {
			fmt.Printf("\n%-14s %-7s %-24s %-12s %s\n",
				"TRACE", "PROCS", "WORKLOAD", "EVENTS", "AET")
			for _, te := range traces {
				fmt.Printf("%-14s %-7d %-24s %-12d %.2fs\n",
					te.Meta.AppName, te.Meta.Procs, te.Workload,
					te.Meta.Events, te.Meta.AET.Seconds())
			}
		}
		for _, p := range problems {
			fmt.Printf("problem: %s\n", p)
		}
		if len(problems) > 0 {
			fmt.Println("run `pas2p repo fsck` to quarantine corrupt entries and rebuild the manifest")
		}
		return nil

	case "fsck":
		rep, err := repo.Fsck()
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil

	case "predict":
		if *app == "" {
			return fmt.Errorf("repo predict: -app is required")
		}
		entry, err := repo.Lookup(*app, *procs, *workload)
		if err != nil {
			return err
		}
		td, err := deployFor(*target, *cores, *procs)
		if err != nil {
			return err
		}
		res, err := entry.Predict(td, apps.Make)
		if err != nil {
			return err
		}
		fmt.Printf("%s/p%d/%q on %s: SET %.2fs, PET %.2fs\n",
			*app, *procs, entry.Saved.Workload, td, res.SET.Seconds(), res.PET.Seconds())
	}
	return nil
}
