// Package apps provides the parallel workloads the paper evaluates
// PAS2P with: CG, BT, SP, LU and FT from the NAS Parallel Benchmarks,
// Sweep3D, SMG2000, POP, the Moldy molecular-dynamics code, a
// GROMACS-like MD variant, and the §6 master/worker pathological case.
//
// Each kernel is a faithful miniature: real Go code with the
// original's control flow and communication structure (the pattern,
// peers, collective mix and message-volume ratios), moving real
// payloads in miniature buffers. Computation is declared, not
// performed: each compute gap is a Compute call whose cost reproduces
// the original's compute/communication balance on the modelled
// clusters. Phase extraction and prediction consume only the event
// stream and these gaps, so the kernels exercise the same code paths
// the real applications would.
package apps

import (
	"fmt"
	"math"
	"sort"

	"pas2p/internal/mpi"
)

// Spec describes one instantiable workload.
type Spec struct {
	// Name is the application identifier ("cg", "sweep3d", ...).
	Name string
	// Workloads lists the named parameter sets this app accepts
	// (e.g. "classC", "classD" for the NPB kernels).
	Workloads []string
	// DefaultWorkload is used when the caller passes "".
	DefaultWorkload string
	// StateBytesPerRank is the per-process footprint used by the
	// checkpoint cost model.
	StateBytesPerRank int64
	// Make builds the runnable application.
	Make func(procs int, workload string) (mpi.App, error)
}

var registry = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("apps: duplicate registration of " + s.Name)
	}
	registry[s.Name] = s
}

// Names lists registered applications in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the spec for a name, or nil.
func Lookup(name string) *Spec { return registry[name] }

// Make instantiates an application by name; an empty workload selects
// the spec's default.
func Make(name string, procs int, workload string) (mpi.App, error) {
	s := registry[name]
	if s == nil {
		return mpi.App{}, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return s.Make(procs, Workload(name, workload))
}

// Workload resolves the workload an application runs: "" names the
// registered app's default, anything else (and every workload of an
// unregistered name) is itself. The signature repository keys entries
// by it, so "" and the default name the same signature.
func Workload(name, workload string) string {
	if s := registry[name]; s != nil && workload == "" {
		return s.DefaultWorkload
	}
	return workload
}

// pickWorkload resolves a workload name against a parameter map.
func pickWorkload[T any](app, workload string, table map[string]T) (T, error) {
	if w, ok := table[workload]; ok {
		return w, nil
	}
	var zero T
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	return zero, fmt.Errorf("apps: %s: unknown workload %q (have %v)", app, workload, names)
}

// grid2D returns a near-square factorisation rows*cols = p with
// rows <= cols.
func grid2D(p int) (rows, cols int) {
	rows = int(math.Sqrt(float64(p)))
	for rows > 1 && p%rows != 0 {
		rows--
	}
	if rows < 1 {
		rows = 1
	}
	return rows, p / rows
}

// isSquare reports whether p is a perfect square.
func isSquare(p int) bool {
	r := int(math.Sqrt(float64(p)))
	return r*r == p
}

// mkbuf allocates a small working array.
func mkbuf(n int, fill float64) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = fill + float64(i)*1e-3
	}
	return b
}
