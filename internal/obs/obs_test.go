package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one counter, one gauge and one
// histogram from many goroutines; totals must be exact. The CI race
// run covers this test, so any unsynchronised access also fails -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Name resolution races the map get-or-create on
				// purpose; real call sites may do either.
				r.Counter("c").Inc()
				r.Histogram("h", []float64{10, 100}).Observe(float64(i % 200))
				r.Gauge("g").Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	h := r.Histogram("h", nil)
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	// Each worker observes 0..199 five times: sum per worker = 5 * (199*200/2).
	want := float64(workers) * 5 * 199 * 200 / 2
	if h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
	if g := r.Gauge("g").Value(); g < 0 || g >= workers {
		t.Errorf("gauge = %v, want a worker id", g)
	}
}

// TestRegistrySpanConcurrency appends spans from many goroutines, as
// the service's concurrent requests do on a shared observer.
func TestRegistrySpanConcurrency(t *testing.T) {
	o := New()
	const n = 64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			sp := o.StartSpan("stage")
			sp.SetCounter("k", 1)
			sp.End()
		}()
	}
	wg.Wait()
	if got := len(o.Registry.Snapshot().Spans); got != n {
		t.Errorf("recorded %d spans, want %d", got, n)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	// Prometheus semantics: v <= bound. le=1: {0.5, 1}; le=2: {1.5, 2};
	// le=4: {3, 4}; +Inf: {5}.
	wantCounts := []int64{2, 2, 2, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 || s.Sum != 17 {
		t.Errorf("count/sum = %d/%v, want 7/17", s.Count, s.Sum)
	}
}

// fixedSnapshot builds a snapshot with deterministic content for the
// golden-output tests.
func fixedSnapshot() *Snapshot {
	r := NewRegistry()
	r.Counter("sim.messages").Add(42)
	r.Counter("sim.bytes").Add(1 << 20)
	r.Gauge("profile.wall_seconds").Set(1.5)
	h := r.Histogram("sim.msg_bytes", []float64{1024, 65536})
	h.Observe(512)
	h.Observe(2048)
	h.Observe(1 << 20)
	s := r.Snapshot()
	s.TakenAt = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	s.Spans = []SpanRecord{{
		Name:   "phase.extract",
		Start:  time.Date(2026, 8, 5, 11, 59, 0, 0, time.UTC),
		WallNS: 2_500_000, Allocs: 10, AllocBytes: 4096,
		Counters: []SpanCounter{{Name: "phases_found", Value: 7}},
	}}
	s.SpanStats = map[string]SpanStatsSnapshot{
		"phase.extract": {
			Count: 1, WallSumNS: 2_500_000,
			WallMinNS: 2_500_000, WallMaxNS: 2_500_000,
			WallP50NS: 2_500_000, WallP95NS: 2_500_000, WallP99NS: 2_500_000,
			Allocs: 10, AllocBytes: 4096, AllocP99: 4096,
		},
	}
	s.SpansTotal = 1
	return s
}

func TestSnapshotJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedSnapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{
  "taken_at": "2026-08-05T12:00:00Z",
  "counters": {
    "sim.bytes": 1048576,
    "sim.messages": 42
  },
  "gauges": {
    "profile.wall_seconds": 1.5
  },
  "histograms": {
    "sim.msg_bytes": {
      "bounds": [
        1024,
        65536
      ],
      "counts": [
        1,
        1,
        1
      ],
      "sum": 1051136,
      "count": 3
    }
  },
  "spans": [
    {
      "name": "phase.extract",
      "start": "2026-08-05T11:59:00Z",
      "wall_ns": 2500000,
      "allocs": 10,
      "alloc_bytes": 4096,
      "counters": [
        {
          "name": "phases_found",
          "value": 7
        }
      ]
    }
  ],
  "span_stats": {
    "phase.extract": {
      "count": 1,
      "wall_sum_ns": 2500000,
      "wall_min_ns": 2500000,
      "wall_max_ns": 2500000,
      "wall_p50_ns": 2500000,
      "wall_p95_ns": 2500000,
      "wall_p99_ns": 2500000,
      "allocs": 10,
      "alloc_bytes": 4096,
      "alloc_bytes_p99": 4096
    }
  },
  "spans_total": 1
}
`
	if got := buf.String(); got != want {
		t.Errorf("JSON snapshot mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP pas2p_sim_bytes discrete-event simulator traffic — pas2p metric sim.bytes",
		"# TYPE pas2p_sim_bytes counter",
		"pas2p_sim_bytes 1048576",
		"# HELP pas2p_sim_messages discrete-event simulator traffic — pas2p metric sim.messages",
		"# TYPE pas2p_sim_messages counter",
		"pas2p_sim_messages 42",
		"# HELP pas2p_profile_wall_seconds pas2p metric profile.wall_seconds",
		"# TYPE pas2p_profile_wall_seconds gauge",
		"pas2p_profile_wall_seconds 1.5",
		"# HELP pas2p_sim_msg_bytes discrete-event simulator traffic — pas2p metric sim.msg_bytes",
		"# TYPE pas2p_sim_msg_bytes histogram",
		`pas2p_sim_msg_bytes_bucket{le="1024"} 1`,
		`pas2p_sim_msg_bytes_bucket{le="65536"} 2`,
		`pas2p_sim_msg_bytes_bucket{le="+Inf"} 3`,
		"pas2p_sim_msg_bytes_sum 1051136",
		"pas2p_sim_msg_bytes_count 3",
		"# HELP pas2p_span_wall_seconds wall-clock time of pipeline stage spans, aggregated per stage",
		"# TYPE pas2p_span_wall_seconds summary",
		`pas2p_span_wall_seconds{span="phase.extract",quantile="0.5"} 0.0025`,
		`pas2p_span_wall_seconds{span="phase.extract",quantile="0.95"} 0.0025`,
		`pas2p_span_wall_seconds{span="phase.extract",quantile="0.99"} 0.0025`,
		`pas2p_span_wall_seconds_sum{span="phase.extract"} 0.0025`,
		`pas2p_span_wall_seconds_count{span="phase.extract"} 1`,
		"# HELP pas2p_span_allocs_total heap allocations attributed to pipeline stage spans",
		"# TYPE pas2p_span_allocs_total counter",
		`pas2p_span_allocs_total{span="phase.extract"} 10`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("Prometheus snapshot mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromFloatEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1, "1"}, {1.5, "1.5"}, {0, "0"},
		{math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}, {math.NaN(), "NaN"},
	} {
		if got := promFloat(tc.in); got != tc.want {
			t.Errorf("promFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestNilObserverZeroAlloc enforces the Observer seam's core contract:
// every hook an instrumented stage calls — StartSpan, SetCounter, End,
// timeline recording — is allocation-free when no observer is
// configured. The pipeline's nil-observer path is exactly these hooks,
// so zero here means Analyze and the sim run bit-identical work to the
// pre-instrumentation code.
func TestNilObserverZeroAlloc(t *testing.T) {
	var o *Observer
	var tl *Timeline
	allocs := testing.AllocsPerRun(200, func() {
		sp := o.StartSpan("stage")
		sp.SetCounter("events", 123)
		sp.End()
		if r := o.Reg(); r != nil {
			t.Fatal("nil observer returned a registry")
		}
		if got := o.TL(); got != nil {
			t.Fatal("nil observer returned a timeline")
		}
		tl.Slice(1, 0, "compute", "compute", 0, 10)
		tl.Instant(1, 0, "ckpt", 5)
		o.Event("fault.msg_lost", "message lost", 3, 1)
		if o.FR() != nil {
			t.Fatal("nil observer returned a flight recorder")
		}
		if o.MetricsOnly() != nil {
			t.Fatal("nil observer produced a metrics-only observer")
		}
	})
	if allocs != 0 {
		t.Errorf("nil-observer hooks allocated %.1f objects per run, want 0", allocs)
	}
}

// TestPromNameSanitisation pins the metric-name mapping: dots become
// underscores, unicode and punctuation are replaced, and digits pass
// through at every position (the pas2p_ prefix makes a leading digit
// in the exported name impossible).
func TestPromNameSanitisation(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"sim.messages", "pas2p_sim_messages"},
		{"repo.lock_takeovers", "pas2p_repo_lock_takeovers"},
		{"9to5", "pas2p_9to5"},
		{"codec.v2.blocks", "pas2p_codec_v2_blocks"},
		{"latência.ms", "pas2p_lat_ncia_ms"},
		{"a-b/c d", "pas2p_a_b_c_d"},
		{"", "pas2p_"},
		{"UPPER.Case7", "pas2p_UPPER_Case7"},
	} {
		if got := promName(tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestPromLabelEscaping pins the exposition-format label escaping:
// only backslash, quote and newline are special; UTF-8 passes through
// verbatim (Go's %q would emit invalid \u escapes).
func TestPromLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"unicodé ✓", "unicodé ✓"},
		{"\\\"\n", `\\\"\n`},
	} {
		if got := promLabel(tc.in); got != tc.want {
			t.Errorf("promLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestPrometheusOutputHasHelpAndValidEscapes renders a snapshot whose
// span names carry every special character and checks the output
// against the exposition grammar line by line.
func TestPrometheusOutputHasHelpAndValidEscapes(t *testing.T) {
	o := New()
	o.Registry.Counter("sim.messages").Add(1)
	sp := o.StartSpan("weird\"span\\name\nnewline")
	sp.End()
	var buf bytes.Buffer
	if err := o.Registry.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `span="weird\"span\\name\nnewline"`) {
		t.Errorf("span label not escaped per the exposition format:\n%s", out)
	}
	if strings.Contains(out, `\u`) {
		t.Errorf("output contains %%q-style \\u escapes, invalid in the exposition format:\n%s", out)
	}
	seenType := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			seenType[strings.Fields(rest)[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if fam, ok := strings.CutSuffix(name, suf); ok && seenType[fam] {
				base = fam
			}
		}
		if !seenType[base] {
			t.Errorf("sample %q has no preceding # TYPE", line)
		}
	}
	// Every TYPE line must be paired with a HELP line.
	for fam := range seenType {
		if !strings.Contains(out, "# HELP "+fam+" ") {
			t.Errorf("family %s has no # HELP line", fam)
		}
	}
}

// TestSpanRetentionBoundsMemory is the 10k-span soak: the registry
// must retain only the configured ring, keep exact aggregates over
// everything, and reach a zero-allocation steady state on addSpan, so
// a long-running server cannot leak span records.
func TestSpanRetentionBoundsMemory(t *testing.T) {
	r := NewRegistry()
	r.SetSpanRetention(64)
	for i := 0; i < 10_000; i++ {
		r.addSpan(SpanRecord{Name: "stage", WallNS: int64(i + 1), AllocBytes: 128})
	}
	s := r.Snapshot()
	if len(s.Spans) != 64 {
		t.Errorf("retained %d spans, want 64", len(s.Spans))
	}
	if s.SpansTotal != 10_000 || s.SpansDropped != 10_000-64 {
		t.Errorf("total/dropped = %d/%d, want 10000/%d", s.SpansTotal, s.SpansDropped, 10_000-64)
	}
	// Ring holds the most recent records, oldest first.
	if s.Spans[0].WallNS != 10_000-63 || s.Spans[63].WallNS != 10_000 {
		t.Errorf("ring window = [%d, %d], want [9937, 10000]", s.Spans[0].WallNS, s.Spans[63].WallNS)
	}
	st := s.SpanStats["stage"]
	if st.Count != 10_000 || st.WallMinNS != 1 || st.WallMaxNS != 10_000 {
		t.Errorf("aggregate = %+v, want count 10000, min 1, max 10000", st)
	}
	if st.AllocBytes != 10_000*128 {
		t.Errorf("alloc bytes = %d, want %d", st.AllocBytes, 10_000*128)
	}
	// Steady state: recording an existing stage into a full ring must
	// not allocate (no unbounded growth of any kind).
	allocs := testing.AllocsPerRun(1000, func() {
		r.addSpan(SpanRecord{Name: "stage", WallNS: 5, AllocBytes: 64})
	})
	if allocs != 0 {
		t.Errorf("steady-state addSpan allocated %.1f objects per call, want 0", allocs)
	}
}

// TestSpanQuantiles checks the histogram-backed percentiles: exact for
// a single observation (clamped to min==max), and within the 1-2-5
// bucket resolution for a spread of observations.
func TestSpanQuantiles(t *testing.T) {
	r := NewRegistry()
	r.addSpan(SpanRecord{Name: "once", WallNS: 3_141_592})
	st := r.Snapshot().SpanStats["once"]
	if st.WallP50NS != 3_141_592 || st.WallP99NS != 3_141_592 {
		t.Errorf("single-span quantiles = p50 %d p99 %d, want exact 3141592", st.WallP50NS, st.WallP99NS)
	}

	// 1000 spans at 1ms, 10 at 100ms: p50 must sit near 1ms, p99 within
	// a bucket of 1ms (990th of 1010), and max is exact.
	for i := 0; i < 1000; i++ {
		r.addSpan(SpanRecord{Name: "spread", WallNS: 1_000_000})
	}
	for i := 0; i < 10; i++ {
		r.addSpan(SpanRecord{Name: "spread", WallNS: 100_000_000})
	}
	st = r.Snapshot().SpanStats["spread"]
	if st.WallP50NS < 500_000 || st.WallP50NS > 2_000_000 {
		t.Errorf("p50 = %d, want ~1ms", st.WallP50NS)
	}
	if st.WallP99NS < 500_000 || st.WallP99NS > 2_000_000 {
		t.Errorf("p99 = %d, want within the 1ms bucket", st.WallP99NS)
	}
	if st.WallMaxNS != 100_000_000 {
		t.Errorf("max = %d, want 100ms", st.WallMaxNS)
	}
}

// TestSetSpanRetentionRebuild shrinks and regrows the ring and checks
// the retained window stays the newest records in order.
func TestSetSpanRetentionRebuild(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= 10; i++ {
		r.addSpan(SpanRecord{Name: "s", WallNS: int64(i)})
	}
	r.SetSpanRetention(4)
	s := r.Snapshot()
	if len(s.Spans) != 4 || s.Spans[0].WallNS != 7 || s.Spans[3].WallNS != 10 {
		t.Fatalf("after shrink: %v", wallsOf(s.Spans))
	}
	r.addSpan(SpanRecord{Name: "s", WallNS: 11})
	s = r.Snapshot()
	if len(s.Spans) != 4 || s.Spans[0].WallNS != 8 || s.Spans[3].WallNS != 11 {
		t.Fatalf("after shrink+add: %v", wallsOf(s.Spans))
	}
	r.SetSpanRetention(8)
	r.addSpan(SpanRecord{Name: "s", WallNS: 12})
	s = r.Snapshot()
	if len(s.Spans) != 5 || s.Spans[0].WallNS != 8 || s.Spans[4].WallNS != 12 {
		t.Fatalf("after grow+add: %v", wallsOf(s.Spans))
	}
	if s.SpanStats["s"].Count != 12 {
		t.Fatalf("aggregate count = %d, want 12 (retention must not touch aggregates)", s.SpanStats["s"].Count)
	}
}

func wallsOf(spans []SpanRecord) []int64 {
	ws := make([]int64, len(spans))
	for i, sp := range spans {
		ws[i] = sp.WallNS
	}
	return ws
}

func TestSpanRecordsWallAndCounters(t *testing.T) {
	o := New()
	sp := o.StartSpan("stage")
	sp.SetCounter("a", 1)
	sp.SetCounter("a", 2) // overwrite
	sp.SetCounter("b", 3)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	spans := o.Registry.Snapshot().Spans
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	rec := spans[0]
	if rec.Name != "stage" || rec.WallNS < int64(time.Millisecond) {
		t.Errorf("span = %+v, want name 'stage' and >=1ms wall", rec)
	}
	want := []SpanCounter{{Name: "a", Value: 2}, {Name: "b", Value: 3}}
	if len(rec.Counters) != 2 || rec.Counters[0] != want[0] || rec.Counters[1] != want[1] {
		t.Errorf("counters = %v, want %v", rec.Counters, want)
	}
}

// TestRegistryScrapeVsWriteRace pins the scrape path against live
// publishes: goroutines register *new* metric families (the map-write
// half of the race), bump existing ones, and record spans, while
// scrapers continuously take snapshots and render both exposition
// formats. Run under -race; the assertions check the scrape output is
// internally consistent, not merely that nothing crashed.
func TestRegistryScrapeVsWriteRace(t *testing.T) {
	reg := NewRegistry()
	o := &Observer{Registry: reg}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Fresh families force registration during scrapes.
				reg.Counter(fmt.Sprintf("race.w%d.c%d", w, i%17)).Inc()
				reg.Gauge(fmt.Sprintf("race.w%d.g%d", w, i%13)).Set(float64(i))
				reg.Histogram(fmt.Sprintf("race.w%d.h%d", w, i%7), []float64{1, 10, 100}).Observe(float64(i % 150))
				sp := o.StartSpan("race.stage")
				sp.End()
			}
		}(w)
	}

	var scrapers sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 40; i++ {
				snap := reg.Snapshot()
				var prom, js bytes.Buffer
				if err := snap.WritePrometheus(&prom); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if err := snap.WriteJSON(&js); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
				// Internal consistency: every counter the snapshot holds
				// must appear in the rendering with a sane value.
				for name, v := range snap.Counters {
					if v < 0 {
						t.Errorf("counter %s went negative: %d", name, v)
					}
				}
				if len(snap.Counters) > 0 && !strings.Contains(prom.String(), "# TYPE") {
					t.Error("prometheus rendering lost its TYPE lines")
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()

	// A final quiesced snapshot balances: every histogram's bucket sum
	// equals its count.
	snap := reg.Snapshot()
	for name, h := range snap.Histograms {
		var sum int64
		for _, b := range h.Counts {
			sum += b
		}
		if sum != h.Count {
			t.Errorf("histogram %s buckets sum to %d, count %d", name, sum, h.Count)
		}
	}
}
