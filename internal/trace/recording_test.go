package trace_test

import (
	"context"
	"testing"

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
// whatever the run's length (the chunk the reader is on, and the ones
// sealed behind it), so it must stay a small fraction of what the same
// run's recording holds when nobody reads it until the run ends: 14 to
// 18% on an idle 2-vCPU host, bounded here at a third on one of three
// attempts. lu classA's streams are only five chunks long, so the same
// two or three chunks a process are about half of its recording.
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
	// The analysis runs beside the run, so what it lags behind depends
	// on the CPU it gets: a host busy with other tests can starve it.
	// A recording that kept its chunks, or gave none back, holds them
	// all on every attempt.
	for attempt := 1; ; attempt++ {
		signed, err := predict.Sign(context.Background(), predict.Experiment{
			App: app, Base: d, EventOverhead: mpi.PAS2PEventOverhead,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := signed.Traced.Recording.Meta(), res.Recording.Meta(); got != want {
			t.Fatalf("live recording Meta %+v, want %+v", got, want)
		}
		peak, made, reused := signed.Traced.Recording.HeldStats()
		t.Logf("attempt %d: held at most %d of %d chunk bytes (%.1f%%); %d full-size chunks made, %d reused",
			attempt, peak, total, 100*float64(peak)/float64(total), made, reused)
		if peak <= total/3 {
			return
		}
		if attempt == 3 {
			t.Fatalf("the live recording held %d bytes at once, want <= %d (a third of %d)", peak, total/3, total)
		}
	}
}
