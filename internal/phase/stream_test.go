package phase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/fsx"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// streamBudgets are the two memory policies every equivalence test
// runs under: unlimited (no spill store at all) and 1 byte, which
// forces every representative matrix through the spill file on every
// eviction round — the maximally adversarial out-of-core schedule.
var streamBudgets = map[string]int64{"in-core": 0, "forced-spill": 1}

// streamExtractFor runs the full streaming pipeline over an in-memory
// trace and returns the result with cells materialised.
func streamExtractFor(t *testing.T, tr *trace.Trace, warm int, cfg Config, budget int64) *StreamResult {
	t.Helper()
	r, err := logical.StreamOrder(logical.SourceFromTrace(tr))
	if err != nil {
		t.Fatalf("stream order: %v", err)
	}
	scfg := StreamConfig{Config: cfg, MemBudgetBytes: budget}
	if budget > 0 {
		scfg.SpillDir = t.TempDir()
	}
	res, err := ExtractStreamTable(context.Background(), r, r.Meta(), warm, scfg)
	if err != nil {
		t.Fatalf("stream extract: %v", err)
	}
	t.Cleanup(func() { res.Close() })
	if err := res.MaterializeCells(); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return res
}

// assertStreamMatchesInCore is the core phase-stage property: the
// streaming extraction must reproduce the reference scan's analysis
// and BuildTable's table bit for bit, whether or not matrices spill.
func assertStreamMatchesInCore(t *testing.T, label string, tr *trace.Trace, warm int) {
	t.Helper()
	l, err := logical.Order(tr)
	if err != nil {
		t.Fatalf("%s: order: %v", label, err)
	}
	cfg := DefaultConfig()
	ref, err := extractSeed(l, cfg)
	if err != nil {
		t.Fatalf("%s: reference extract: %v", label, err)
	}
	refTB, err := ref.BuildTable(warm)
	if err != nil {
		t.Fatalf("%s: in-core table: %v", label, err)
	}
	for mode, budget := range streamBudgets {
		res := streamExtractFor(t, tr, warm, cfg, budget)
		assertAnalysesEqual(t, label+"/"+mode, ref, res.Analysis)
		if !reflect.DeepEqual(refTB.Rows, res.Table.Rows) {
			for i := range refTB.Rows {
				if i < len(res.Table.Rows) && !reflect.DeepEqual(refTB.Rows[i], res.Table.Rows[i]) {
					t.Fatalf("%s/%s: table row %d diverges:\n got %+v\nwant %+v",
						label, mode, i, res.Table.Rows[i], refTB.Rows[i])
				}
			}
			t.Fatalf("%s/%s: tables diverge (%d rows vs %d)", label, mode, len(res.Table.Rows), len(refTB.Rows))
		}
		if res.Table.AppName != refTB.AppName || res.Table.Procs != refTB.Procs ||
			res.Table.BaseAET != refTB.BaseAET || res.Table.TotalPhases != refTB.TotalPhases {
			t.Fatalf("%s/%s: table header diverges: %+v vs %+v", label, mode, res.Table, refTB)
		}
		if err := res.Table.Validate(); err != nil {
			t.Fatalf("%s/%s: streamed table invalid: %v", label, mode, err)
		}
		if budget > 0 && len(ref.Phases) > 1 && res.Stats.SpilledPhases == 0 {
			t.Fatalf("%s/%s: 1-byte budget spilled nothing across %d phases", label, mode, len(ref.Phases))
		}
	}
}

// TestStreamExtractGoldenApps proves streaming phase extraction is bit
// identical to the reference scan plus BuildTable on every registered
// application workload, with and without spilling, at a warm index of
// 0 (no advance), 2 and 50 (past most weights: the clamp).
func TestStreamExtractGoldenApps(t *testing.T) {
	d, err := machine.NewDeployment(machine.ClusterA(), 16, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range apps.Names() {
		wl, ok := goldenWorkloads[name]
		if !ok {
			t.Errorf("app %q has no golden workload registered; add it", name)
			continue
		}
		name, wl := name, wl
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.Make(name, 16, wl)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Recording.Trace()
			for _, warm := range []int{0, 2, 50} {
				assertStreamMatchesInCore(t, fmt.Sprintf("%s/warm%d", name, warm), tr, warm)
			}
		})
	}
}

// TestStreamExtractRandomTraces fuzzes the property across random SPMD
// programs and warm-occurrence indices (0 exercises the no-advance
// designation, 50 exceeds most weights and exercises the clamp).
func TestStreamExtractRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := genTrace(t, seed, 8)
			for _, warm := range []int{0, 2, 50} {
				assertStreamMatchesInCore(t, fmt.Sprintf("warm%d", warm), tr, warm)
			}
		})
	}
}

// TestStreamExtractBoundaryShapes pins the window-boundary edge cases:
// a single-tick trace, a trace that is one phase with no repeats (the
// whole run is the trailing close), occurrences spanning the
// assignment-chunk boundary of the logical merge, and a single-block
// tracefile read end to end through the real on-disk path.
func TestStreamExtractBoundaryShapes(t *testing.T) {
	d, err := machine.NewDeployment(machine.ClusterA(), 4, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	runApp := func(name string, procs int, body func(c *mpi.Comm)) *trace.Trace {
		t.Helper()
		dep := d
		if procs != 4 {
			dep, err = machine.NewDeployment(machine.ClusterA(), procs, machine.MapBlock)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := mpi.Run(mpi.App{Name: name, Procs: procs, Body: body}, mpi.RunConfig{Deployment: dep, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Recording.Trace()
	}

	// One collective: a single tick, handled entirely by the trailing
	// close — the smallest possible analysis.
	oneTick := runApp("one-tick", 4, func(c *mpi.Comm) { c.Barrier() })
	assertStreamMatchesInCore(t, "single-tick", oneTick, 2)

	// No communication signature ever repeats per process: the run is
	// one phase whose only occurrence is the trailing window — the
	// "window smaller than one phase occurrence" shape, since no
	// interior boundary ever forms.
	noRepeat := runApp("no-repeat", 4, func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 6; i++ {
			c.Compute(1e3)
			// Distinct tag each round => distinct signatures, no repeat.
			c.SendrecvN((c.Rank()+1)%n, i, 64*(i+1), (c.Rank()+n-1)%n, i)
		}
		c.Barrier()
	})
	assertStreamMatchesInCore(t, "no-repeat", noRepeat, 2)

	// A long iterative run whose phase occurrences straddle the
	// logical streamer's assignment-chunk boundaries many times over.
	longRun := runApp("long-run", 4, func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 300; i++ {
			c.Compute(2e3)
			c.SendrecvN((c.Rank()+1)%n, 0, 256, (c.Rank()+n-1)%n, 0)
			if i%7 == 6 {
				c.Allreduce([]float64{1}, mpi.Sum)
			}
		}
	})
	assertStreamMatchesInCore(t, "chunk-straddle", longRun, 2)

	// Single-block tracefile (< 512 events), through the real encoded
	// path: BlockReader -> RankStreams -> StreamOrder -> stream extract.
	small := runApp("single-block", 2, func(c *mpi.Comm) {
		for i := 0; i < 5; i++ {
			c.Compute(1e3)
			c.Barrier()
		}
	})
	if len(small.Events) >= 512 {
		t.Fatalf("single-block shape grew to %d events; shrink it", len(small.Events))
	}
	l, err := logical.Order(small)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := extractSeed(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := encodeToRankStreams(t, small)
	tick, err := logical.StreamOrder(rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractStreamTable(context.Background(), tick, tick.Meta(), 2, StreamConfig{Config: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysesEqual(t, "single-block/file", ref, res.Analysis)
}

// encodeToRankStreams round-trips a trace through the v2 codec and
// opens per-rank streams over the encoded bytes.
func encodeToRankStreams(t *testing.T, tr *trace.Trace) *trace.RankStreams {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := br.RankStreams()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestStreamExtractContextCancel: a cancelled context aborts the
// extraction promptly with the context's error.
func TestStreamExtractContextCancel(t *testing.T) {
	tr := genTrace(t, 3, 8)
	r, err := logical.StreamOrder(logical.SourceFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtractStreamTable(ctx, r, r.Meta(), 2, StreamConfig{Config: DefaultConfig()}); err != context.Canceled {
		t.Fatalf("cancelled extraction returned %v, want context.Canceled", err)
	}
}

// TestSpillCodecRoundTrip pins the spill file format: encode/decode is
// lossless and every corruption is caught by shape or checksum checks.
func TestSpillCodecRoundTrip(t *testing.T) {
	cells := zeroCells(3, 2)
	cells[0][1] = Cell{Present: true, Sig: 0xdeadbeefcafe, Size: 4096, Compute: vtime.Duration(12345)}
	cells[2][0] = Cell{Present: true, Sig: 7, Size: 1, Compute: 1}
	data := encodeSpill(cells)
	got, err := decodeSpill(data, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, got) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, cells)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x10
		if _, err := decodeSpill(bad, 1, 3, 2); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, err := decodeSpill(data[:len(data)-1], 1, 3, 2); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("truncated spill error = %v, want size complaint", err)
	}
	if _, err := decodeSpill(data, 1, 4, 2); err == nil {
		t.Fatal("wrong shape went undetected")
	}
}

// TestStreamSpillEngages: under a budget far below the matrices'
// footprint the store actually spills and reloads, files appear under
// the spill dir during the run, and Close removes them.
func TestStreamSpillEngages(t *testing.T) {
	tr := genTrace(t, 1, 8)
	r, err := logical.StreamOrder(logical.SourceFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/spill"
	res, err := ExtractStreamTable(context.Background(), r, r.Meta(), 2,
		StreamConfig{Config: DefaultConfig(), MemBudgetBytes: 1, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Analysis.Phases) > 1 {
		if res.Stats.SpilledPhases == 0 {
			t.Fatal("budget 1 spilled no phases")
		}
		if res.Stats.SpillBytes == 0 {
			t.Fatal("spilled phases wrote no bytes")
		}
	}
	if err := res.MaterializeCells(); err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Analysis.Phases {
		if p.Cells == nil || len(p.Cells) != p.TickLen {
			t.Fatalf("phase %d cells not materialised", p.ID)
		}
	}
	if err := res.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestStreamSpillTempDir: with a budget and no SpillDir the extraction
// spills into a temporary directory of its own, which Close removes,
// and which a failed extraction removes before returning.
func TestStreamSpillTempDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	tr := genTrace(t, 1, 8)
	extract := func(ctx context.Context) (*StreamResult, error) {
		r, err := logical.StreamOrder(logical.SourceFromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		return ExtractStreamTable(ctx, r, r.Meta(), 2, StreamConfig{Config: DefaultConfig(), MemBudgetBytes: 1})
	}
	left := func() []string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(tmp, "pas2p-spill-*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	res, err := extract(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dirs := left(); len(dirs) != 1 {
		t.Fatalf("spill dirs during the result's life: %v, want one", dirs)
	}
	if len(res.Analysis.Phases) > 1 && res.Stats.SpilledPhases == 0 {
		t.Fatal("budget 1 spilled no phases")
	}
	if err := res.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if dirs := left(); len(dirs) != 0 {
		t.Fatalf("Close left %v", dirs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := extract(ctx); err != context.Canceled {
		t.Fatalf("cancelled extraction returned %v, want context.Canceled", err)
	}
	if dirs := left(); len(dirs) != 0 {
		t.Fatalf("failed extraction left %v", dirs)
	}
}

// devFullFS is the real filesystem except that every file it creates
// is /dev/full, where each write fails with ENOSPC.
type devFullFS struct{ fsx.OS }

func (devFullFS) Create(string) (fsx.File, error) { return os.OpenFile("/dev/full", os.O_WRONLY, 0) }

// TestAnalyzeSpillENOSPC: a spill store whose disk is full fails the
// analysis with an error that still matches syscall.ENOSPC, so front
// doors can tell a full disk from other failures.
func TestAnalyzeSpillENOSPC(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	tr := genTrace(t, 1, 8)
	_, err := Analyze(context.Background(), logical.SourceFromTrace(tr), StreamConfig{Config: DefaultConfig(),
		MemBudgetBytes: 1, FS: devFullFS{}, SpillDir: t.TempDir()}, 1, nil)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Analyze with a full spill disk: error %v, want one matching ENOSPC", err)
	}
}
