package trace_test

import (
	"context"
	"testing"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/predict"
)

// TestRecordingBytesPerEvent bounds what a real traced run's recording
// holds per event, chunk slack included: lu classA at 64 ranks, traced
// as predict.Sign traces it. Its records pack 13.8 bytes an event of
// the 88 an Event takes, and its short streams leave their last chunks
// partly empty, so its 8 KiB chunks hold 15.7 (22.2 with 32 KiB
// chunks); a field stored at full width, or chunks that grew past
// their cap, would take it past the bound.
func TestRecordingBytesPerEvent(t *testing.T) {
	app, err := apps.Make("lu", 64, "classA")
	if err != nil {
		t.Fatal(err)
	}
	d, err := machine.NewDeployment(machine.ClusterC(), 64, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true, EventOverhead: mpi.PAS2PEventOverhead})
	if err != nil {
		t.Fatal(err)
	}
	events := res.Recording.Meta().Events
	perEvent := float64(res.Recording.ChunkBytes()) / float64(events)
	t.Logf("%d events in %d chunk bytes: %.2f bytes per event", events, res.Recording.ChunkBytes(), perEvent)
	if perEvent > 24 {
		t.Errorf("the recording holds %.2f bytes per event, want <= 24", perEvent)
	}
}

// TestLiveSignHoldsFewChunks: predict.Sign analyses lu classC at 64
// ranks while the traced run records it, handing every chunk it has
// read back to the recorders. What the recording holds at once, its
// published chunks not yet read back, is two or three chunks a process
// when the reader keeps up (16% of the chunk bytes the same run's
// recording holds when nobody reads it until the run ends, on an idle
// 2-vCPU host), and never more than the recording's bound, four
// full-size chunks a process (25%), when it does not: a recorder past
// the bound waits for the reader. So every attempt must stay within
// the bound, however little CPU the reader gets.
func TestLiveSignHoldsFewChunks(t *testing.T) {
	app, err := apps.Make("lu", 64, "classC")
	if err != nil {
		t.Fatal(err)
	}
	d, err := machine.NewDeployment(machine.ClusterC(), 64, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true, EventOverhead: mpi.PAS2PEventOverhead})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Recording.ChunkBytes()
	for attempt := 1; attempt <= 3; attempt++ {
		signed, err := predict.Sign(context.Background(), predict.Experiment{
			App: app, Base: d, EventOverhead: mpi.PAS2PEventOverhead,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := signed.Traced.Recording
		if got, want := rec.Meta(), res.Recording.Meta(); got != want {
			t.Fatalf("live recording Meta %+v, want %+v", got, want)
		}
		peak, made, reused := rec.HeldStats()
		t.Logf("attempt %d: held at most %d of %d chunk bytes (%.1f%%); %d full-size chunks made, %d reused",
			attempt, peak, total, 100*float64(peak)/float64(total), made, reused)
		if limit := rec.HeldLimit(); peak > limit {
			t.Fatalf("attempt %d: the live recording held %d bytes at once, want <= its bound %d", attempt, peak, limit)
		}
	}
}

// TestUndrainedRunNeverWaits: a traced run nobody drains while it runs
// (mpi.Run, then Trace) holds every chunk it records, past the bound a
// live reader sets, and neither the run nor Trace waits for a reader.
func TestUndrainedRunNeverWaits(t *testing.T) {
	app, err := apps.Make("lu", 64, "classA")
	if err != nil {
		t.Fatal(err)
	}
	d, err := machine.NewDeployment(machine.ClusterC(), 64, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var res *mpi.RunResult
	var events int
	go func() {
		var err error
		res, err = mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true, EventOverhead: mpi.PAS2PEventOverhead})
		if err == nil {
			events = len(res.Recording.Trace().Events)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("an undrained traced run or its Trace still waits after a minute")
	}
	peak, _, _ := res.Recording.HeldStats()
	if limit := res.Recording.HeldLimit(); peak <= limit {
		t.Errorf("the undrained recording held at most %d bytes, not past the live bound %d: the check proves nothing", peak, limit)
	}
	if m := res.Recording.Meta(); uint64(events) != m.Events {
		t.Errorf("Trace has %d events, Meta %d", events, m.Events)
	}
}
