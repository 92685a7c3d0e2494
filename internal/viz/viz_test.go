package viz

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

func sampleTrace(t testing.TB) *trace.Trace {
	t.Helper()
	d, err := machine.NewDeployment(machine.ClusterA(), 4, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(mpi.App{Name: "viz<app>", Procs: 4, Body: func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 5; i++ {
			c.Compute(1e5)
			c.SendrecvN((c.Rank()+1)%n, 0, 2048, (c.Rank()+n-1)%n, 0)
			c.Allreduce([]float64{1}, mpi.Sum)
		}
	}}, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Recording.Trace()
}

func TestRenderTraceProducesSVG(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := RenderTrace(&buf, tr, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, want := range []string{"<svg", "</svg>", "send", "recv", "collective", "P0", "P3"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// The app name contains XML metacharacters; they must be escaped.
	if strings.Contains(svg, "viz<app>") {
		t.Error("app name not XML-escaped")
	}
	if !strings.Contains(svg, "viz&lt;app&gt;") {
		t.Error("escaped app name missing")
	}
	// Boxes for all three event kinds plus message links.
	if strings.Count(svg, "<rect") < 20 {
		t.Errorf("suspiciously few rects: %d", strings.Count(svg, "<rect"))
	}
	if strings.Count(svg, "<line") < 10 {
		t.Error("expected message links and lanes")
	}
}

func TestRenderTraceValidation(t *testing.T) {
	if err := RenderTrace(&bytes.Buffer{}, nil, DefaultOptions()); err == nil {
		t.Error("nil trace should fail")
	}
	tr := sampleTrace(t)
	opts := DefaultOptions()
	opts.From = vtime.Time(1e18)
	opts.To = vtime.Time(2e18)
	if err := RenderTrace(&bytes.Buffer{}, tr, opts); err == nil {
		t.Error("empty window should fail")
	}
}

func TestRenderTraceWindow(t *testing.T) {
	tr := sampleTrace(t)
	var full, half bytes.Buffer
	if err := RenderTrace(&full, tr, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.To = vtime.Time(tr.AET / 2)
	if err := RenderTrace(&half, tr, opts); err != nil {
		t.Fatal(err)
	}
	if half.Len() >= full.Len() {
		t.Error("windowed render should draw fewer elements")
	}
}

func TestRenderTraceMaxEvents(t *testing.T) {
	tr := sampleTrace(t)
	opts := DefaultOptions()
	opts.MaxEvents = 3
	var buf bytes.Buffer
	if err := RenderTrace(&buf, tr, opts); err != nil {
		t.Fatal(err)
	}
	// 3 event boxes + compute blocks + legend rects only.
	if strings.Count(buf.String(), "<title>") != 3 {
		t.Errorf("cap not applied: %d boxes", strings.Count(buf.String(), "<title>"))
	}
}

// TestRenderTraceWidth: a width with no room between the margins is
// refused rather than drawn with a backwards time axis; MinWidth draws.
func TestRenderTraceWidth(t *testing.T) {
	tr := sampleTrace(t)
	opts := DefaultOptions()
	for _, w := range []int{-3, 1, MinWidth - 1} {
		opts.Width = w
		if err := RenderTrace(io.Discard, tr, opts); err == nil {
			t.Errorf("width %d: rendered, want a refusal", w)
		}
	}
	opts.Width = MinWidth
	if err := RenderTrace(io.Discard, tr, opts); err != nil {
		t.Errorf("width %d: %v", MinWidth, err)
	}
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c`); got != "a&lt;b&gt;&amp;&quot;c" {
		t.Errorf("xmlEscape = %q", got)
	}
}
