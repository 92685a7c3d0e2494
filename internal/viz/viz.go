// Package viz renders traces and signature executions as standalone
// SVG timelines (one lane per process, boxes for computation and
// communication, links for messages). The paper positions PAS2P as an
// alternative to heavyweight visualisation tools (§2: users should be
// able to analyse applications "without requiring visualization
// tools"); this package covers the small remaining need — looking at a
// trace — with a dependency-free renderer wired into the CLI.
package viz

import (
	"fmt"
	"io"

	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// Options controls the rendering.
type Options struct {
	// Width is the drawing width in pixels (0 means 1200). A width
	// below MinWidth leaves no room between the margins and is refused.
	Width int
	// LaneHeight is the per-process lane height (default 28).
	LaneHeight int
	// MaxEvents caps the number of events drawn (earliest first) so
	// huge traces stay viewable; 0 means 5000.
	MaxEvents int
	// From/To restrict the rendered physical-time window; zero values
	// mean the full span.
	From, To vtime.Time
	// ShowMessages draws send->receive links.
	ShowMessages bool
}

// The plot's margins: the lane labels on the left, a gap on the right
// and above for the title.
const marginL, marginR, marginT = 70, 20, 30

// MinWidth is the narrowest drawing with a time axis: one pixel
// between the margins.
const MinWidth = marginL + marginR + 1

// DefaultOptions returns the standard rendering setup.
func DefaultOptions() Options {
	return Options{Width: 1200, LaneHeight: 28, MaxEvents: 5000, ShowMessages: true}
}

const (
	colorSend = "#2c7fb8"
	colorRecv = "#7fcdbb"
	colorColl = "#d95f0e"
	colorComp = "#eeeeee"
	colorLink = "#999999"
	colorText = "#333333"
)

// RenderTrace writes an SVG timeline of the trace.
func RenderTrace(w io.Writer, tr *trace.Trace, opts Options) error {
	if tr == nil || len(tr.Events) == 0 {
		return fmt.Errorf("viz: empty trace")
	}
	if opts.Width == 0 {
		opts.Width = 1200
	}
	if opts.Width < MinWidth {
		return fmt.Errorf("viz: width %d is below the minimum %d", opts.Width, MinWidth)
	}
	if opts.LaneHeight <= 0 {
		opts.LaneHeight = 28
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 5000
	}

	// Establish the time window.
	var tMin, tMax vtime.Time
	first := true
	for i := range tr.Events {
		e := &tr.Events[i]
		if first || e.Enter < tMin {
			tMin = e.Enter
		}
		if first || e.Exit > tMax {
			tMax = e.Exit
		}
		first = false
	}
	if opts.From != 0 || opts.To != 0 {
		if opts.From > tMin {
			tMin = opts.From
		}
		if opts.To != 0 && opts.To < tMax {
			tMax = opts.To
		}
	}
	if tMax <= tMin {
		return fmt.Errorf("viz: empty time window")
	}
	span := float64(tMax - tMin)

	plotW := opts.Width - marginL - marginR
	height := marginT + tr.Procs*opts.LaneHeight + 40
	xOf := func(t vtime.Time) float64 {
		return float64(marginL) + float64(t-tMin)/span*float64(plotW)
	}
	yOf := func(p int32) int { return marginT + int(p)*opts.LaneHeight }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n",
		opts.Width, height)
	fmt.Fprintf(w, `<text x="%d" y="18" fill="%s">%s — %d processes, %d events, span %v</text>`+"\n",
		marginL, colorText, xmlEscape(tr.AppName), tr.Procs, len(tr.Events), vtime.Duration(tMax-tMin))

	// Lanes.
	for p := 0; p < tr.Procs; p++ {
		y := yOf(int32(p))
		fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#dddddd"/>`+"\n",
			marginL, y+opts.LaneHeight/2, marginL+plotW, y+opts.LaneHeight/2)
		fmt.Fprintf(w, `<text x="8" y="%d" fill="%s">P%d</text>`+"\n", y+opts.LaneHeight/2+4, colorText, p)
	}

	// Events (and compute gaps) in global order, capped.
	drawn := 0
	type sendPos struct {
		x float64
		y int
	}
	sendAt := map[[2]int64]sendPos{}
	boxH := opts.LaneHeight * 2 / 3
	for i := range tr.Events {
		if drawn >= opts.MaxEvents {
			break
		}
		e := &tr.Events[i]
		if e.Exit < tMin || e.Enter > tMax {
			continue
		}
		drawn++
		y := yOf(e.Process) + (opts.LaneHeight-boxH)/2
		// Compute block before the event.
		if e.ComputeBefore > 0 {
			cx0 := xOf(e.Enter.Add(-e.ComputeBefore))
			cx1 := xOf(e.Enter)
			if cx1 > cx0 {
				fmt.Fprintf(w, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`+"\n",
					cx0, y, cx1-cx0, boxH, colorComp)
			}
		}
		x0, x1 := xOf(e.Enter), xOf(e.Exit)
		if x1-x0 < 1 {
			x1 = x0 + 1
		}
		color := colorColl
		switch e.Kind {
		case trace.Send:
			color = colorSend
			sendAt[[2]int64{e.RelA, e.RelB}] = sendPos{x: x0, y: y + boxH/2}
		case trace.Recv:
			color = colorRecv
		}
		fmt.Fprintf(w, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s P%d #%d peer=%d tag=%d %dB [%v..%v]</title></rect>`+"\n",
			x0, y, x1-x0, boxH, color,
			e.Kind, e.Process, e.Number, e.Peer, e.Tag, e.Size, e.Enter, e.Exit)
		if opts.ShowMessages && e.Kind == trace.Recv {
			if sp, ok := sendAt[[2]int64{e.RelA, e.RelB}]; ok {
				fmt.Fprintf(w, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-width="0.6"/>`+"\n",
					sp.x, sp.y, x1, y+boxH/2, colorLink)
			}
		}
	}

	// Legend and axis.
	ly := marginT + tr.Procs*opts.LaneHeight + 16
	legend := []struct {
		color, label string
	}{{colorSend, "send"}, {colorRecv, "recv"}, {colorColl, "collective"}, {colorComp, "compute"}}
	lx := marginL
	for _, l := range legend {
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", lx, ly, l.color)
		fmt.Fprintf(w, `<text x="%d" y="%d" fill="%s">%s</text>`+"\n", lx+14, ly+9, colorText, l.label)
		lx += 14 + 9*len(l.label) + 18
	}
	fmt.Fprintf(w, `<text x="%d" y="%d" fill="%s">t0=%v  t1=%v</text>`+"\n",
		lx+10, ly+9, colorText, tMin, tMax)
	fmt.Fprintln(w, `</svg>`)
	if drawn == 0 {
		return fmt.Errorf("viz: no events inside the window")
	}
	return nil
}

func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
