package trace_test

import (
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
)

// TestRecordingBytesPerEvent bounds what a real traced run's recording
// holds per event, chunk slack included: lu classA at 64 ranks, traced
// as predict.Sign traces it. Its records pack 13.8 bytes an event of
// the 88 an Event takes, and its short streams leave their last chunks
// mostly empty, so its chunks hold 22.2; a field stored at full width,
// or chunks that grew past their cap, would take it past the bound.
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
