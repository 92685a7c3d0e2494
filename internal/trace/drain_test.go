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
// close still fixes the event count. The events recorded before the
// first read stay within the recording's held-bytes bound, since the
// recorder runs on the reader's goroutine and would wait for it past
// the bound; after the stop it never waits.
func TestRecordingDrainStop(t *testing.T) {
	const head, events = 1000, 8000
	in := liveInputs(1, events)[0]
	rec := StartRecording("stop", 1)
	d := rec.Drain()
	for i := range in[:head] {
		rec.Recorder(0).Record(&in[i])
	}
	var e Event
	if ok, _ := d.NextEvent(0, &e); !ok {
		t.Fatal("no event published")
	}
	d.Stop()
	_, _, before := rec.HeldStats()
	for i := range in[head:] {
		rec.Recorder(0).Record(&in[head+i])
	}
	rec.Close(7)
	if _, _, reused := rec.HeldStats(); reused == before {
		t.Error("the stopped recording recycled no chunk")
	}
	if q := rec.queued[0]; len(q) != 0 || rec.held != 0 {
		t.Errorf("the stopped recording holds %d chunks, %d bytes", len(q), rec.held)
	}
	if m := rec.Meta(); m.Events != events || m.AET != 7 {
		t.Errorf("Meta %+v, want %d events and AET 7", m, events)
	}
}

// TestRecordingDrainEndedStream: a stream whose recorder has ended
// reads to its end without waiting for the recording to close; Meta
// stays provisional while a stream is open, and once none is, waits
// for the close and returns the final header. The reader starts
// before the recorder, which would otherwise wait for it at the
// held-bytes bound.
func TestRecordingDrainEndedStream(t *testing.T) {
	in := liveInputs(2, 3000)
	rec := StartRecording("ended", 2)
	d := rec.Drain()
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
	for i := range in[0] {
		rec.Recorder(0).Record(&in[0][i])
	}
	rec.Recorder(0).End()
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

// TestRecordingHeldBound records four processes' streams on one
// goroutine while a Drain reader that sleeps before each chunk it
// takes reads them on another, so the recorders outrun it: they must
// wait at the recording's bound, which the held bytes then reach but
// never pass, and every event must still arrive.
func TestRecordingHeldBound(t *testing.T) {
	const procs, events = 4, 6000
	in := liveInputs(procs, events)
	rec := StartRecording("bound", procs)
	d := rec.Drain()
	go func() {
		for i := 0; i < events; i++ {
			for p := range in {
				rec.Recorder(p).Record(&in[p][i])
			}
		}
		rec.Close(1)
	}()
	done := make(chan [][]Event, 1)
	go func() {
		got := make([][]Event, procs)
		for open := procs; open > 0; {
			open = 0
			for p := range got {
				if len(d.cur[p].rest) == 0 {
					time.Sleep(200 * time.Microsecond)
				}
				var e Event
				if ok, _ := d.NextEvent(p, &e); ok {
					got[p] = append(got[p], e)
					open++
				}
			}
		}
		done <- got
	}()
	var got [][]Event
	select {
	case got = <-done:
	case <-time.After(time.Minute):
		t.Fatal("the bounded recording still runs after a minute")
	}
	for p := range got {
		if !reflect.DeepEqual(got[p], deriveFields(p, in[p])) {
			t.Fatalf("process %d drains differently from what it recorded", p)
		}
	}
	peak, _, _ := rec.HeldStats()
	if peak > rec.limit || peak < rec.limit-procs*recorderChunk {
		t.Errorf("held at most %d bytes, want within a chunk a process below the bound %d", peak, rec.limit)
	}
}

// TestRecordingStopReleasesRecorder: a recorder that waits at the
// bound for a reader that reads nothing goes on once the reader
// stops, and the recording then holds nothing.
func TestRecordingStopReleasesRecorder(t *testing.T) {
	const events = 8000
	in := liveInputs(1, events)[0]
	rec := StartRecording("release", 1)
	d := rec.Drain()
	done := make(chan struct{})
	go func() {
		for i := range in {
			rec.Recorder(0).Record(&in[i])
		}
		rec.Close(3)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("the recorder never waited for the reader")
	default:
	}
	if peak, _, _ := rec.HeldStats(); peak > rec.limit {
		t.Fatalf("held %d bytes before the stop, past the bound %d", peak, rec.limit)
	}
	d.Stop()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("the recorder still waits a minute after the reader stopped")
	}
	if m := rec.Meta(); m.Events != events || rec.held != 0 {
		t.Errorf("Meta %+v and %d bytes held, want %d events and none", m, rec.held, events)
	}
}
