package main

import (
	"fmt"
	"os"
	"time"

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
	g, err := os.Create(path)
	if err != nil {
		return err
	}
	defer g.Close()
	if err := viz.RenderTrace(g, tr, opts); err != nil {
		return err
	}
	fmt.Printf("rendered %d events of %s to %s\n", len(tr.Events), tr.AppName, path)
	return nil
}
