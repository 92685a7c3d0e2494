package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"pas2p/internal/fsx"
	"pas2p/internal/trace"
	"pas2p/internal/viz"
	"pas2p/internal/vtime"
)

// cmdRender draws a tracefile as an SVG timeline.
func cmdRender(args []string) error {
	fs := newFlagSet("render")
	in := fs.String("trace", "", "input tracefile")
	out := fs.String("o", "", "output SVG (default <trace>.svg)")
	width := fs.Int("width", 1200, "drawing width in pixels")
	maxEvents := fs.Int("max-events", 5000, "cap on drawn events")
	from := fs.Duration("from", 0, "window start (virtual, e.g. 1.5s)")
	to := fs.Duration("to", 0, "window end (virtual; 0 = full span)")
	noLinks := fs.Bool("no-links", false, "omit send->recv links")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("render: -trace is required")
	}
	if *width < viz.MinWidth {
		return fmt.Errorf("render: -width %d leaves no room for the plot (minimum %d)", *width, viz.MinWidth)
	}
	if *maxEvents <= 0 {
		return fmt.Errorf("render: -max-events %d is not positive", *maxEvents)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return err
	}
	opts := viz.DefaultOptions()
	opts.Width = *width
	opts.MaxEvents = *maxEvents
	opts.ShowMessages = !*noLinks
	if *from > 0 {
		opts.From = vtime.Time(vtime.FromSeconds(float64(*from) / float64(time.Second)))
	}
	if *to > 0 {
		opts.To = vtime.Time(vtime.FromSeconds(float64(*to) / float64(time.Second)))
	}
	path := *out
	if path == "" {
		path = *in + ".svg"
	}
	err = fsx.WriteFileAtomic(fsx.OS{}, path, func(w io.Writer) error { return viz.RenderTrace(w, tr, opts) })
	if err != nil {
		return err
	}
	fmt.Printf("rendered %d events of %s to %s\n", len(tr.Events), tr.AppName, path)
	return nil
}
