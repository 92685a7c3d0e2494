package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pas2p"
	"pas2p/internal/logical"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
	"pas2p/internal/workload"
)

// analyzeConfig fixes the analyze workload's corpus.
type analyzeConfig struct {
	// traced are applications traced on the Table 8 machine during
	// set-up; synthEvents sizes the seeded synthetic ring trace.
	traced      []appCase
	synthProcs  int
	synthEvents int64
}

var defaultAnalyze = analyzeConfig{
	traced: []appCase{
		{"lu", "classC", 64},
		{"pop", "synthetic150", 64},
		{"smg2000", "-n 200 solver 3", 64},
		{"cg", "classC", 64},
	},
	synthProcs: 64,
	// One million events keeps the in-core pass near 400 MiB resident.
	synthEvents: 1_000_000,
}

const (
	// defaultMemBudget is the CLI's -mem-budget default; forcedSpill
	// makes every representative matrix spill.
	defaultMemBudget = 256 << 20
	forcedSpill      = 1
)

// corpusTrace is one encoded tracefile of the corpus.
type corpusTrace struct {
	name   string
	path   string
	events int
	bytes  int64
}

func runAnalyze(ctx context.Context, e *env) (*outcome, error) {
	return analyzeWorkload(ctx, e, defaultAnalyze)
}

// buildCorpus traces every application and writes the synthetic
// trace, returning the encoded files and the time spent encoding.
func buildCorpus(cfg analyzeConfig, dir string, seed int64) ([]corpusTrace, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var (
		out    []corpusTrace
		encode time.Duration
	)
	apps, err := prepareApps(cfg.traced)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range apps {
		rr, err := pas2p.RunApp(p.app, pas2p.RunConfig{Deployment: p.dep, Trace: true, EventOverhead: eventOverhead})
		if err != nil {
			return nil, 0, fmt.Errorf("tracing %s: %w", p.app.Name, err)
		}
		path := filepath.Join(dir, p.app.Name+".pas2p")
		t0 := time.Now()
		n, err := writeFile(path, func(w *bufio.Writer) error {
			return pas2p.EncodeTrace(w, rr.Trace, pas2p.TraceCodecOptions{})
		})
		encode += time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, corpusTrace{name: p.app.Name, path: path, events: len(rr.Trace.Events), bytes: n})
	}
	path := filepath.Join(dir, "synth-ring.pas2p")
	var meta pas2p.TraceMeta
	n, err := writeFile(path, func(w *bufio.Writer) (err error) {
		meta, err = workload.Synthesize(w, workload.SynthSpec{Procs: cfg.synthProcs,
			TargetEvents: cfg.synthEvents, Seed: uint64(seed)})
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	out = append(out, corpusTrace{name: "synth-ring", path: path, events: int(meta.Events), bytes: n})
	return out, encode, nil
}

func writeFile(path string, fill func(*bufio.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// analyzeInCore is stage A on a decoded trace: DecodeTrace, then
// Analyze.
func analyzeInCore(c corpusTrace) (*pas2p.PhaseTable, error) {
	f, err := os.Open(c.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := pas2p.DecodeTrace(bufio.NewReaderSize(f, 1<<20), pas2p.TraceCodecOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: decode: %w", c.name, err)
	}
	_, tb, err := pas2p.Analyze(tr, pas2p.DefaultPhaseConfig(), 1)
	if err != nil {
		return nil, fmt.Errorf("%s: analyze: %w", c.name, err)
	}
	return tb, nil
}

// analyzeStreamed is AnalyzeStream on the tracefile under a memory
// budget.
func analyzeStreamed(ctx context.Context, c corpusTrace, budget int64, spill string) (*pas2p.PhaseTable, error) {
	f, err := os.Open(c.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := pas2p.NewTraceBlockReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	res, err := pas2p.AnalyzeStream(ctx, br, pas2p.DefaultPhaseConfig(), 1,
		pas2p.AnalyzeStreamOptions{MemBudgetBytes: budget, SpillDir: spill})
	if err != nil {
		return nil, fmt.Errorf("%s: stream (budget %d): %w", c.name, budget, err)
	}
	if err := res.Close(); err != nil {
		return nil, err
	}
	return res.Table, nil
}

func analyzeWorkload(ctx context.Context, e *env, cfg analyzeConfig) (*outcome, error) {
	out := newOutcome()
	var encodes []time.Duration
	corpus, setup, err := timeSetup(e, setupRuns, func() ([]corpusTrace, func(), error) {
		c, enc, err := buildCorpus(cfg, filepath.Join(e.work, "corpus"), e.seed)
		encodes = append(encodes, enc)
		return c, nil, err
	}, nil)
	if err != nil {
		return nil, err
	}
	out.setup(setup)
	out.values["trace.encode_s"] = medianSeconds(encodes)
	spill := filepath.Join(e.work, "spill")
	order := rand.New(rand.NewSource(e.seed)).Perm(len(corpus))

	var (
		passes           []cost
		incoreT, streamT time.Duration
		spillT           time.Duration
		events           int64
		heap             heapSampler
		tr               = newAnalyzeTrace()
	)
	start := time.Now()
	for len(passes) == 0 || (time.Since(start) < e.seconds && ctx.Err() == nil) {
		var pass cost
		for _, i := range order {
			c := corpus[i]
			var (
				ref, tb   *pas2p.PhaseTable
				err, sErr error
			)
			incore := measure(func() { ref, err = analyzeInCore(c) })
			out.op(err)
			if err != nil {
				continue
			}
			if e.traced {
				heap.start()
			}
			stream := measure(func() { tb, sErr = analyzeStreamed(ctx, c, defaultMemBudget, spill) })
			out.op(checkStreamed(c.name+" streamed", ref, tb, sErr))
			spilled := measure(func() { tb, sErr = analyzeStreamed(ctx, c, forcedSpill, spill) })
			out.op(checkStreamed(c.name+" streamed with forced spill", ref, tb, sErr))
			if e.traced {
				heap.stop()
			}
			fmt.Fprintf(e.log, "analyze: %s in-core %.3fs stream %.3fs spill %.3fs (cpu %.3fs %.3fs %.3fs)\n",
				c.name, incore.wall.Seconds(), stream.wall.Seconds(), spilled.wall.Seconds(),
				incore.cpu.Seconds(), stream.cpu.Seconds(), spilled.cpu.Seconds())
			pass = pass.plus(incore).plus(stream).plus(spilled)
			incoreT += incore.wall
			streamT += stream.wall
			spillT += spilled.wall
			events += int64(c.events)
			if e.traced {
				// The same three analyses again, driven stage by stage
				// under spans, right after the untraced ones.
				out.op(tr.run(ctx, c, ref, spill))
			}
		}
		passes = append(passes, pass)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.values["pass_cpu_s"] = medianCPUSeconds(passes)
	out.values["bench.pass_wall_s"] = medianWallSeconds(passes)
	out.values["analyze_events_per_s"] = float64(events) / incoreT.Seconds()
	out.values["stream_events_per_s"] = float64(events) / streamT.Seconds()
	out.values["stream_peak_heap_mib"] = float64(heap.peak) / (1 << 20)
	if e.traced {
		tr.report(out, incoreT+streamT+spillT)
		if err := tr.rec.save(e.spans); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mib"] = rss
	out.values["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	out.values["fail_ratio"] = float64(out.failed) / float64(out.attempted)
	return out, nil
}

func checkStreamed(what string, ref, got *pas2p.PhaseTable, err error) error {
	if err != nil {
		return err
	}
	return checkSameTable(what, ref, got)
}

// heapSampler records the peak heap in use while it runs, sampled
// every few milliseconds after a collection at start.
type heapSampler struct {
	peak  uint64
	stopc chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
}

func (h *heapSampler) start() {
	runtime.GC()
	h.stopc = make(chan struct{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			h.mu.Lock()
			h.peak = max(h.peak, ms.HeapAlloc)
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tk.C:
			}
		}
	}()
}

func (h *heapSampler) stop() {
	close(h.stopc)
	h.wg.Wait()
}

// timedSource and timedTicks are the traced run's timing decorators
// over the two public interfaces of streaming stage A: the per-rank
// event reader feeding the logical merge, and the tick stream feeding
// phase extraction. They keep cumulative busy time.
type timedSource struct {
	logical.EventSource
	busy time.Duration
}

func (s *timedSource) NextEvent(p int, dst *trace.Event) (bool, error) {
	t0 := time.Now()
	ok, err := s.EventSource.NextEvent(p, dst)
	s.busy += time.Since(t0)
	return ok, err
}

type timedTicks struct {
	phase.TickSource
	busy time.Duration
}

func (t *timedTicks) Next() (*logical.Tick, error) {
	t0 := time.Now()
	tk, err := t.TickSource.Next()
	t.busy += time.Since(t0)
	return tk, err
}

// analyzeTrace accumulates the traced analyze run.
type analyzeTrace struct {
	rec                             *recorder
	decodeBytes                     int64
	rankRead, merge, extractStream  time.Duration
	streamWall, tracedWall          time.Duration
	ticks, phases, relevant         int64
	spilled, spillBytes, spillLoads int64
}

func newAnalyzeTrace() *analyzeTrace { return &analyzeTrace{rec: newRecorder()} }

// run drives one trace through in-core and both streamed analyses,
// stage by stage, each call inside a span, and checks every table
// against the untraced in-core reference.
func (a *analyzeTrace) run(ctx context.Context, c corpusTrace, ref *pas2p.PhaseTable, spill string) error {
	op := a.rec.newOp()
	var (
		tb  *pas2p.PhaseTable
		err error
	)
	a.tracedWall += measure(func() {
		root := a.rec.start(op, 0, "analyze.incore")
		tb, err = a.inCore(op, root, c)
		a.rec.end(root)
	}).wall
	if err != nil {
		return err
	}
	if err := checkSameTable(c.name+" traced in-core", ref, tb); err != nil {
		return err
	}
	for _, budget := range []int64{defaultMemBudget, forcedSpill} {
		var res *phase.StreamResult
		a.tracedWall += measure(func() { res, err = a.streamed(ctx, op, c, budget, spill) }).wall
		if err != nil {
			return err
		}
		if err := checkSameTable(fmt.Sprintf("%s traced stream (budget %d)", c.name, budget), ref, res.Table); err != nil {
			return err
		}
		if budget == forcedSpill {
			a.spilled += int64(res.Stats.SpilledPhases)
			a.spillBytes += res.Stats.SpillBytes
			a.spillLoads += res.Stats.SpillLoads
		}
	}
	return nil
}

func (a *analyzeTrace) inCore(op, root int, c corpusTrace) (*pas2p.PhaseTable, error) {
	var (
		tr *pas2p.Trace
		l  *pas2p.Logical
		an *pas2p.PhaseAnalysis
		tb *pas2p.PhaseTable
	)
	err := a.rec.call(op, root, "trace.decode", func() error {
		f, err := os.Open(c.path)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = pas2p.DecodeTrace(bufio.NewReaderSize(f, 1<<20), pas2p.TraceCodecOptions{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: decode: %w", c.name, err)
	}
	a.decodeBytes += c.bytes
	if err := a.rec.call(op, root, "logical.order", func() (err error) { l, err = pas2p.OrderLogical(tr); return err }); err != nil {
		return nil, fmt.Errorf("%s: order: %w", c.name, err)
	}
	if err := a.rec.call(op, root, "phase.extract", func() (err error) {
		an, err = pas2p.ExtractPhases(l, pas2p.DefaultPhaseConfig())
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: extract: %w", c.name, err)
	}
	if err := a.rec.call(op, root, "phase.table", func() (err error) { tb, err = an.BuildTable(1); return err }); err != nil {
		return nil, fmt.Errorf("%s: table: %w", c.name, err)
	}
	a.ticks += int64(l.NumTicks())
	a.phases += int64(tb.TotalPhases)
	a.relevant += int64(len(tb.RelevantRows()))
	return tb, nil
}

// streamed is AnalyzeStream's body, called through the public stage
// functions with the timing decorators in between. The streamed wall
// time the stage timers must explain runs from opening the rank streams
// to the end of extraction.
func (a *analyzeTrace) streamed(ctx context.Context, op int, c corpusTrace, budget int64, spill string) (*phase.StreamResult, error) {
	root := a.rec.start(op, 0, "analyze.stream")
	defer a.rec.end(root)
	f, err := os.Open(c.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := pas2p.NewTraceBlockReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	t0 := time.Now()
	rs, err := br.RankStreams()
	if err != nil {
		return nil, fmt.Errorf("%s: rank streams: %w", c.name, err)
	}
	src := &timedSource{EventSource: rs}
	tick, err := logical.StreamOrder(src)
	if err != nil {
		return nil, fmt.Errorf("%s: stream order: %w", c.name, err)
	}
	ticks := &timedTicks{TickSource: tick}
	readBefore := src.busy
	e0 := time.Now()
	res, err := phase.ExtractStreamTable(ctx, ticks, tick.Meta(), 1, phase.StreamConfig{
		Config: phase.DefaultConfig(), MemBudgetBytes: budget, SpillDir: spill})
	extract := time.Since(e0)
	a.streamWall += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: stream extract (budget %d): %w", c.name, budget, err)
	}
	if err := res.Close(); err != nil {
		return nil, err
	}
	a.rankRead += src.busy
	a.merge += ticks.busy - (src.busy - readBefore)
	a.extractStream += extract - ticks.busy
	return res, nil
}

// report fills the per-layer metrics; untraced is the untraced time of
// the same analyses, for the tracing overhead.
func (a *analyzeTrace) report(out *outcome, untraced time.Duration) {
	self := a.rec.selfTimes()
	out.values["trace.decode_s"] = self["trace.decode"].Seconds()
	out.values["trace.decode_mb_per_s"] = float64(a.decodeBytes) / 1e6 / self["trace.decode"].Seconds()
	out.values["logical.order_s"] = self["logical.order"].Seconds()
	out.values["phase.extract_s"] = self["phase.extract"].Seconds()
	out.values["phase.table_s"] = self["phase.table"].Seconds()
	out.values["trace.rank_read_s"] = a.rankRead.Seconds()
	out.values["logical.merge_s"] = a.merge.Seconds()
	out.values["phase.extract_stream_s"] = a.extractStream.Seconds()
	out.values["logical.ticks"] = float64(a.ticks)
	out.values["phase.phases"] = float64(a.phases)
	out.values["phase.relevant"] = float64(a.relevant)
	out.values["phase.spilled_phases"] = float64(a.spilled)
	out.values["phase.spill_bytes"] = float64(a.spillBytes)
	out.values["phase.spill_reloads"] = float64(a.spillLoads)
	out.values["bench.trace_overhead_pct"] = 100 * (a.tracedWall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	out.values["bench.stage_coverage_pct"] = 100 * (a.rankRead + a.merge + a.extractStream).Seconds() / a.streamWall.Seconds()
}
