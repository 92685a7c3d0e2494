package main

import (
	"fmt"
	"io"
	"os"

	"pas2p/internal/fsx"
	"pas2p/internal/obs"
	"pas2p/internal/scenario"
)

// cmdScenario runs or validates declarative scenario suites:
//
//	pas2p scenario validate examples/scenarios
//	pas2p scenario run examples/scenarios -junit results.xml
//
// run executes every scenario's sweep matrix (targets × fault seeds)
// on a pool of GOMAXPROCS workers and exits non-zero when any assertion is
// violated, naming the scenario, the assertion and the measured value.
func cmdScenario(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("scenario: usage: pas2p scenario run|validate <path> [flags]")
	}
	verb, args := args[0], args[1:]
	// The path is positional: pas2p scenario run examples/scenarios -v.
	var path string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		path, args = args[0], args[1:]
	}
	switch verb {
	case "validate":
		return scenarioValidate(path, args)
	case "run":
		return scenarioRun(path, args)
	default:
		return fmt.Errorf("scenario: unknown action %q (run or validate)", verb)
	}
}

// scenarioValidate parses every scenario strictly and reports the
// matrix it would run, without executing anything. Unknown keys,
// misspelled assertion names, bad presets, bad fault specs and bad
// bounds all fail here with file:line positions.
func scenarioValidate(path string, args []string) error {
	fs := newFlagSet("scenario validate")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("scenario validate: usage: pas2p scenario validate <file-or-dir>")
	}
	scenarios, err := scenario.Load(path)
	if err != nil {
		return err
	}
	cases := 0
	for _, s := range scenarios {
		cs := s.Cases()
		cases += len(cs)
		fmt.Printf("%-28s %s x%d ranks, %s -> %d target(s), %d case(s)\n",
			s.Name, s.App.Name, s.App.Ranks, s.Base.Label(), len(s.Targets), len(cs))
	}
	fmt.Printf("%d scenario(s), %d case(s): all valid\n", len(scenarios), cases)
	return nil
}

func scenarioRun(path string, args []string) error {
	fs := newFlagSet("scenario run")
	timeout := fs.Duration("timeout", 0, "per-case wall budget for scenarios that set none (default 2m)")
	jsonOut := fs.String("json", "", "write the canonical JSON results document to this path")
	junitOut := fs.String("junit", "", "write JUnit XML for CI to this path")
	verbose := fs.Bool("v", false, "print one progress line per finished case")
	serve := fs.String("serve", "", "serve live telemetry during the campaign, e.g. 127.0.0.1:9090 (port 0 picks one)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("scenario run: usage: pas2p scenario run <file-or-dir> [flags]")
	}
	scenarios, err := scenario.Load(path)
	if err != nil {
		return err
	}
	o := obs.New()
	stopServe, err := startServe(*serve, o)
	if err != nil {
		return err
	}
	defer stopServe()
	opts := scenario.Options{Timeout: *timeout, Observer: o}
	if *verbose {
		opts.Log = func(format string, a ...any) {
			fmt.Printf(format+"\n", a...)
		}
	}
	doc, err := scenario.Run(scenarios, opts)
	if err != nil {
		return err
	}
	scenario.PrintTable(os.Stdout, doc)
	if *jsonOut != "" {
		err := fsx.WriteFileAtomic(fsx.OS{}, *jsonOut, func(w io.Writer) error {
			return scenario.WriteJSON(w, doc)
		})
		if err != nil {
			return err
		}
		fmt.Printf("results document written to %s\n", *jsonOut)
	}
	if *junitOut != "" {
		err := fsx.WriteFileAtomic(fsx.OS{}, *junitOut, func(w io.Writer) error {
			return scenario.WriteJUnit(w, doc)
		})
		if err != nil {
			return err
		}
		fmt.Printf("JUnit XML written to %s\n", *junitOut)
	}
	if doc.Failed > 0 {
		return fmt.Errorf("scenario: %d of %d cases failed", doc.Failed, len(doc.Cases))
	}
	return nil
}
