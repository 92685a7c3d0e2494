package trace

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pas2p/internal/vtime"
)

// liveInputs returns events events per process for procs processes,
// random but valid for Record.
func liveInputs(procs, events int) [][]Event {
	rng := rand.New(rand.NewSource(3))
	in := make([][]Event, procs)
	for p := range in {
		var at vtime.Time
		for i := 0; i < events; i++ {
			at += vtime.Time(rng.Intn(5000))
			e := Event{Kind: Kind(rng.Intn(3)), Involved: 2, CollOp: -1, Peer: int32(rng.Intn(procs)),
				Tag: int32(rng.Intn(8)), Size: int64(rng.Intn(1 << 16)),
				RelA: int64(rng.Intn(procs)), RelB: int64(i), Enter: at}
			at += vtime.Time(rng.Intn(3000))
			e.Exit = at
			in[p] = append(in[p], e)
		}
	}
	return in
}

// TestRecordingDrainLive records three processes' streams on one
// goroutine, as a run does, while a Drain reader reads them on another,
// a step of each process in turn, as the logical merge does. The reader
// must get every event NewTrace derives, see the final Meta once the
// recording closes, and take the chunks it read back to the recorders.
func TestRecordingDrainLive(t *testing.T) {
	const procs, events = 3, 4000
	in := liveInputs(procs, events)
	rec := StartRecording("live", procs)
	d := rec.Drain()
	go func() {
		for i := 0; i < events; i++ {
			for p := range in {
				e := in[p][i]
				rec.Recorder(p).Record(&e)
			}
			if i%256 == 0 {
				runtime.Gosched()
			}
		}
		rec.Close(99)
	}()
	want := make([][]Event, procs)
	for p := range want {
		want[p] = deriveFields(p, in[p])
	}
	got := make([][]Event, procs)
	for open := procs; open > 0; {
		open = 0
		for p := range got {
			var e Event
			ok, err := d.NextEvent(p, &e)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				got[p] = append(got[p], e)
				open++
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("drained streams differ from the recorded ones")
	}
	tr, err := NewTrace("live", procs, want, 99)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta() != tr.Meta() {
		t.Fatalf("Meta %+v after the close, want %+v", d.Meta(), tr.Meta())
	}
	if peak, made, reused := rec.HeldStats(); peak == 0 || made == 0 {
		t.Fatalf("held %d bytes at most, %d chunks made, %d reused", peak, made, reused)
	}
}

// TestRecordingReadOnce: a recording has one reader, so a second read,
// by Trace or Drain, panics, and so does Trace on a recording still
// open, whose streams are not all written yet.
func TestRecordingReadOnce(t *testing.T) {
	closed := func() *Recording {
		rec := StartRecording("once", 2)
		rec.Recorder(1).Record(&Event{Kind: Collective, Enter: 1, Exit: 2})
		rec.Close(5)
		return rec
	}
	for _, tc := range []struct {
		name        string
		rec         func() *Recording
		first, then func(*Recording)
	}{
		{"Trace after Trace", closed, func(r *Recording) { r.Trace() }, func(r *Recording) { r.Trace() }},
		{"Trace after Drain", closed, func(r *Recording) { r.Drain() }, func(r *Recording) { r.Trace() }},
		{"Drain after Trace", closed, func(r *Recording) { r.Trace() }, func(r *Recording) { r.Drain() }},
		{"Trace while open", func() *Recording { return StartRecording("open", 2) },
			func(*Recording) {}, func(r *Recording) { r.Trace() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec()
			tc.first(rec)
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			tc.then(rec)
		})
	}
}

// TestRecordingDrainStop: once the reader stops, what the run records
// is recycled unread, so the recording holds nothing more, and the
// close still fixes the event count.
func TestRecordingDrainStop(t *testing.T) {
	const events = 4000
	in := liveInputs(1, 2*events)[0]
	rec := StartRecording("stop", 1)
	d := rec.Drain()
	for i := range in[:events] {
		rec.Recorder(0).Record(&in[i])
	}
	var e Event
	if ok, _ := d.NextEvent(0, &e); !ok {
		t.Fatal("no event published")
	}
	d.Stop()
	_, _, before := rec.HeldStats()
	for i := range in[events:] {
		rec.Recorder(0).Record(&in[events+i])
	}
	rec.Close(7)
	if _, _, reused := rec.HeldStats(); reused == before {
		t.Error("the stopped recording recycled no chunk")
	}
	if q := rec.queued[0]; len(q) != 0 || rec.held != 0 {
		t.Errorf("the stopped recording holds %d chunks, %d bytes", len(q), rec.held)
	}
	if m := rec.Meta(); m.Events != 2*events || m.AET != 7 {
		t.Errorf("Meta %+v, want %d events and AET 7", m, 2*events)
	}
}

// TestRecordingDrainEndedStream: a stream whose recorder has ended
// reads to its end without waiting for the recording to close; Meta
// stays provisional while a stream is open, and once none is, waits
// for the close and returns the final header.
func TestRecordingDrainEndedStream(t *testing.T) {
	in := liveInputs(2, 3000)
	rec := StartRecording("ended", 2)
	d := rec.Drain()
	for i := range in[0] {
		rec.Recorder(0).Record(&in[0][i])
	}
	rec.Recorder(0).End()
	read := make(chan int)
	go func() {
		n := 0
		var e Event
		for {
			ok, _ := d.NextEvent(0, &e)
			if !ok {
				read <- n
				return
			}
			n++
		}
	}()
	select {
	case n := <-read:
		if n != len(in[0]) {
			t.Fatalf("read %d events of the ended stream, want %d", n, len(in[0]))
		}
	case <-time.After(time.Minute):
		t.Fatal("the reader waits at the end of an ended stream")
	}
	if m := d.Meta(); m.Events != 0 {
		t.Fatalf("Meta %+v with a stream still open, want no event count yet", m)
	}
	rec.Recorder(1).Record(&in[1][0])
	rec.Recorder(1).End()
	go rec.Close(42)
	if m := d.Meta(); m.Events != uint64(len(in[0])+1) || m.AET != 42 {
		t.Fatalf("Meta %+v once every stream ended, want %d events and AET 42", m, len(in[0])+1)
	}
}
