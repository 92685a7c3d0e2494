package pas2p_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pas2p"
	"pas2p/internal/trace"
)

// TestDuplicateReceiveStallsEveryEntrypoint: a malformed trace in
// which two receives name the same send has no PAS2P order. The
// queue algorithm resolves the first receive, consumes the send, and
// stalls on the second. The in-core order, the in-core analysis and
// the streamed analysis run one engine, so all three must fail with
// the same stall error.
func TestDuplicateReceiveStallsEveryEntrypoint(t *testing.T) {
	p0 := []trace.Event{
		{Process: 0, Number: 0, Kind: trace.Send, Involved: 2, CollOp: -1, Peer: 1, Tag: 0,
			Enter: 0, Exit: 1, RelA: 0, RelB: 0},
	}
	p1 := []trace.Event{
		{Process: 1, Number: 0, Kind: trace.Recv, Involved: 2, CollOp: -1, Peer: 0, Tag: 0,
			Enter: 0, Exit: 2, RelA: 0, RelB: 0},
		{Process: 1, Number: 1, Kind: trace.Recv, Involved: 2, CollOp: -1, Peer: 0, Tag: 0,
			Enter: 3, Exit: 4, RelA: 0, RelB: 0},
	}
	tr, err := trace.NewTrace("dup-recv", 2, [][]trace.Event{p0, p1}, 10)
	if err != nil {
		t.Fatal(err)
	}

	_, orderErr := pas2p.OrderLogical(tr)
	if orderErr == nil {
		t.Fatal("OrderLogical accepted two receives of one send")
	}
	_, _, analyzeErr := pas2p.Analyze(tr, pas2p.DefaultPhaseConfig(), 1)
	if analyzeErr == nil {
		t.Fatal("Analyze accepted two receives of one send")
	}

	var buf bytes.Buffer
	if err := pas2p.EncodeTrace(&buf, tr, pas2p.TraceCodecOptions{}); err != nil {
		t.Fatal(err)
	}
	br, err := pas2p.NewTraceBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	res, streamErr := pas2p.AnalyzeStream(context.Background(), br, pas2p.DefaultPhaseConfig(), 1,
		pas2p.AnalyzeStreamOptions{})
	if streamErr == nil {
		res.Close()
		t.Fatal("AnalyzeStream accepted two receives of one send")
	}

	if analyzeErr.Error() != orderErr.Error() || streamErr.Error() != orderErr.Error() {
		t.Fatalf("stall errors diverge:\n  OrderLogical:  %v\n  Analyze:       %v\n  AnalyzeStream: %v",
			orderErr, analyzeErr, streamErr)
	}
}

// TestTracefileEndsAtFileCRC: a cg/8 tracefile with 8 junk bytes after
// its file checksum is refused by every reader — Decode, VerifyStream
// (which repo fsck runs) and the rank streams the in-place analysis
// reads — with a corruption error at the first junk byte, while the
// exact file passes all three.
func TestTracefileEndsAtFileCRC(t *testing.T) {
	app, err := pas2p.MakeApp("cg", 8, "classA")
	if err != nil {
		t.Fatal(err)
	}
	d, err := pas2p.NewDeployment(pas2p.ClusterA(), 8, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pas2p.EncodeTrace(&buf, rr.Trace, pas2p.TraceCodecOptions{}); err != nil {
		t.Fatal(err)
	}
	exact := buf.Bytes()
	readers := map[string]func([]byte) error{
		"Decode": func(b []byte) error {
			_, err := trace.Decode(bytes.NewReader(b))
			return err
		},
		"VerifyStream": func(b []byte) error {
			_, err := trace.VerifyStream(bytes.NewReader(b))
			return err
		},
		"RankStreams": func(b []byte) error {
			br, err := trace.NewBlockReader(bytes.NewReader(b))
			if err != nil {
				return err
			}
			_, err = br.RankStreams()
			return err
		},
	}
	junk := append(bytes.Clone(exact), "trailing"...)
	at := fmt.Sprintf("(at byte offset %d)", len(exact))
	for name, read := range readers {
		if err := read(exact); err != nil {
			t.Errorf("%s: exact file refused: %v", name, err)
		}
		err := read(junk)
		if !errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), at) {
			t.Errorf("%s: file with 8 bytes past its checksum: err = %v, want a corruption error %s", name, err, at)
		}
	}
}
