package report

import (
	"bytes"
	"strings"
	"testing"
)

// fastOpts shrinks every experiment to 1/16 of the paper's process
// counts so the whole table set runs in test time.
func fastOpts() Options {
	return Options{ProcScale: 16}
}

func TestOptionsScale(t *testing.T) {
	o := Options{ProcScale: 8}
	if got := o.scale(256); got != 32 {
		t.Errorf("scale(256) = %d, want 32", got)
	}
	if got := o.scale(16); got != 4 {
		t.Errorf("scale(16) = %d, want >= 4", got)
	}
	o = Options{ProcScale: 0}
	if got := o.scale(64); got != 64 {
		t.Errorf("unscaled should pass through, got %d", got)
	}
}

func TestTable2PrintsAllClusters(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	out := buf.String()
	for _, want := range []string{"Cluster A", "Cluster B", "Cluster C", "Cluster D", "InfiniBand", "GigE", "ia64"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table3(&buf, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < res.Relevant || res.Relevant < 1 {
		t.Errorf("phases %d/%d invalid", res.Relevant, res.Total)
	}
	if len(res.Rows) != res.Relevant {
		t.Errorf("rows %d != relevant %d", len(res.Rows), res.Relevant)
	}
	// The headline shape: SET is far below AET.
	if res.SETSeconds >= res.AETSeconds/2 {
		t.Errorf("SET %.2f vs AET %.2f: signature not short", res.SETSeconds, res.AETSeconds)
	}
	// Weights spread across the relevant phases (Table 3's structure).
	if res.Rows[0].Weight <= 1 {
		t.Error("dominant moldy phase should repeat many times")
	}
	out := buf.String()
	for _, want := range []string{"TABLE 3", "Relevant phases", "Weight"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 output missing %q", want)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table5(&buf, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("Table 5 has %d rows, want 14 (7 apps x 2 core counts)", len(rows))
	}
	var sumPETE float64
	for _, r := range rows {
		if r.Outcome.SETvsAETPercent >= 100 {
			t.Errorf("%s: SET not below AET", r.App)
		}
		sumPETE += r.Outcome.PETEPercent
	}
	// The paper's headline: average accuracy > 97% (ours is usually
	// better; be generous at 1/16 scale).
	if avg := sumPETE / float64(len(rows)); avg > 10 {
		t.Errorf("average PETE %.2f%% too high", avg)
	}
}

func TestTable7Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table7(&buf, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Table 7 has %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Outcome.PETEPercent > 12 {
			t.Errorf("%s: PETE %.2f%% out of the paper's regime", r.App, r.Outcome.PETEPercent)
		}
	}
}

func TestPerfTablesShape(t *testing.T) {
	rows, err := RunPerf(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("perf set has %d rows, want 7", len(rows))
	}
	byApp := map[string]*PerfRow{}
	for i := range rows {
		byApp[rows[i].App] = &rows[i]
	}
	// Table 8 shape: LU produces the largest tracefile, FT the
	// smallest, mirroring the paper's 5.2 GB vs 512 KB split.
	if byApp["lu"].Outcome.TFSize <= byApp["ft"].Outcome.TFSize {
		t.Error("LU tracefile should dwarf FT's")
	}
	for _, r := range rows {
		if r.Outcome.Total < 1 || r.Outcome.SCT <= 0 {
			t.Errorf("%s: degenerate analysis %+v", r.App, r.Outcome.Total)
		}
		// Table 9 shape: every overhead factor is >= 1 and the
		// instrumented run is at least as long as the plain one.
		if r.Outcome.OverheadFactor < 1 {
			t.Errorf("%s: overhead %.2f < 1", r.App, r.Outcome.OverheadFactor)
		}
		if r.Outcome.AETPAS2P < r.Outcome.AETBase {
			t.Errorf("%s: instrumented run faster than plain", r.App)
		}
	}
	var buf bytes.Buffer
	Table8(&buf, rows)
	Table9(&buf, rows)
	for _, want := range []string{"TABLE 8", "TABLE 9", "TFSize", "Overhead"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestClusterByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown cluster should panic")
		}
	}()
	clusterByName("Z")
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2 << 10: "2.0KB",
		3 << 20: "3.0MB",
		5 << 30: "5.0GB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestShrinkToCores(t *testing.T) {
	c := clusterByName("B") // 8 cores/node
	cc, err := shrinkToCores(c, 32)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Nodes != 4 {
		t.Errorf("nodes = %d, want 4", cc.Nodes)
	}
	cc, err = shrinkToCores(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Nodes != 1 {
		t.Errorf("tiny request should round up to 1 node, got %d", cc.Nodes)
	}
}

func TestAppendixDShape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := AppendixD(&buf, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Appendix D has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Outcome.PETEPercent > 12 {
			t.Errorf("%s-%d: PETE %.2f%%", r.App, r.Procs, r.Outcome.PETEPercent)
		}
	}
	if !strings.Contains(buf.String(), "APPENDIX D") {
		t.Error("missing header")
	}
}

func TestAppendixEShape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := AppendixE(&buf, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Appendix E has %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Outcome.PETEPercent > 12 {
			t.Errorf("%s: PETE %.2f%% on cluster D", r.App, r.Outcome.PETEPercent)
		}
		if r.Outcome.SETvsAETPercent >= 100 {
			t.Errorf("%s: SET not below AET on cluster D", r.App)
		}
	}
}
