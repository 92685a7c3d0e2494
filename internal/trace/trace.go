// Package trace defines the event records produced by instrumenting a
// message-passing application (the paper's §3.1 "data collection"
// stage, played by libpas2p in the original tool) and the trace
// container consumed by the logical-ordering and phase-extraction
// stages. It also provides the checksummed binary tracefile codec, so
// tracefile sizes and analysis times can be reported as in Table 8.
package trace

import (
	"fmt"

	"pas2p/internal/vtime"
)

// Kind distinguishes the event classes of the application model.
type Kind int8

const (
	// Send and Recv are the two point-to-point event types; the paper
	// encodes them as +K / -K with K the number of involved processes.
	Send Kind = iota
	Recv
	// Collective covers MPI_Bcast, MPI_Allreduce, MPI_Barrier, etc.;
	// the paper treats them as events involving all member processes.
	Collective
)

func (k Kind) String() string {
	switch k {
	case Send:
		return "Send"
	case Recv:
		return "Recv"
	case Collective:
		return "Coll"
	default:
		return "Kind(?)"
	}
}

// NoLT marks an event whose logical time has not been assigned yet.
const NoLT = int64(-1)

// Event is one communication action observed on one process. It
// carries the fields of the paper's event structure: physical time,
// logical time, process, type (+K/-K), size, per-process number, and
// the relation linking a receive to its send (or a collective
// occurrence to its peers). The paper's identifier, "given in order of
// occurrence", is not held in memory, where nothing reads it: a
// tracefile's ID column holds each record's position in the file
// (blockio.go), and readers skip it.
//
// The fields are ordered by size, widest first, so the struct has no
// interior padding (88 bytes). Every recorded event is written into
// its Recorder chunk once and copied by the logical order's head slot
// (and by Recording.Trace for a tracefile writer), and Trace.Events
// holds one per event, so TestEventSize pins the size.
type Event struct {
	// Number is the event's index within its process (0-based).
	Number int64
	// Size is the communication volume in bytes.
	Size int64
	// Enter and Exit are the physical times at which the operation
	// started and completed on this process.
	Enter, Exit vtime.Time
	// LT is the logical time assigned by the PAS2P ordering (NoLT
	// until the model stage runs).
	LT int64
	// RelA/RelB encode the relation field: for point-to-point events
	// they are (source process, per-source send sequence), so a Recv
	// carries exactly its matching Send's identity; for collectives
	// they are (context, per-context sequence).
	RelA, RelB int64
	// ComputeBefore is the computational time observed on this process
	// between the previous event's exit and this event's enter: the
	// payload of the parallel basic block ending at this event.
	ComputeBefore vtime.Duration
	// Process is the rank the event occurred on.
	Process int32
	// Involved is the K of the paper's +K/-K encoding (2 for
	// point-to-point, the member count for collectives).
	Involved int32
	// Peer is the other process of a point-to-point event (destination
	// for sends, source for receives); -1 for collectives.
	Peer int32
	// Tag is the message tag; collectives use the communicator context.
	Tag int32
	// Kind is the event class.
	Kind Kind
	// CollOp identifies the collective operation (network.CollectiveOp
	// values); -1 for point-to-point events.
	CollOp int8
}

// TypeCode returns the paper's signed type encoding: +K for sends and
// collectives, -K for receives.
func (e *Event) TypeCode() int32 {
	if e.Kind == Recv {
		return -e.Involved
	}
	return e.Involved
}

// CommSignature returns a compact value identifying the "type of
// communication" used by the phase-similarity test: kind, collective
// op, peer offset and tag. Two events communicate "the same way" when
// their signatures match.
func (e *Event) CommSignature() uint64 {
	k := uint64(e.Kind) & 0x3
	op := uint64(uint8(e.CollOp)) & 0xff
	// Use the peer's distance from the owning process so the same
	// pattern shifted across ranks compares equal (e.g. every rank
	// sending to rank+1).
	var rel uint64
	if e.Peer >= 0 {
		rel = uint64(uint32(e.Peer-e.Process)) & 0xffffff
	} else {
		rel = 0xffffff
	}
	tag := uint64(uint32(e.Tag)) & 0xffff
	return k | op<<2 | rel<<10 | tag<<34
}

// Trace is the result of instrumenting one application run: all events
// of all processes, plus run-level metadata.
type Trace struct {
	// AppName labels the traced application.
	AppName string
	// Procs is the number of processes in the run.
	Procs int
	// Events holds every process's events. After NewTrace or
	// Recording.Trace they are sorted by (Process, Number).
	Events []Event
	// AET is the uninstrumented-equivalent application execution time
	// observed during tracing (the run's virtual finish time).
	AET vtime.Duration
}

// NewTrace assembles per-process event streams into a normalised
// trace: events sorted by (Process, Number).
func NewTrace(app string, procs int, perProc [][]Event, aet vtime.Duration) (*Trace, error) {
	if procs <= 0 || len(perProc) != procs {
		return nil, fmt.Errorf("trace %q: have %d process streams, want %d", app, len(perProc), procs)
	}
	total := 0
	for p, evs := range perProc {
		for i := range evs {
			if int(evs[i].Process) != p {
				return nil, fmt.Errorf("trace %q: stream %d contains event of process %d", app, p, evs[i].Process)
			}
			if evs[i].Number != int64(i) {
				return nil, fmt.Errorf("trace %q: process %d event %d numbered %d", app, p, i, evs[i].Number)
			}
		}
		total += len(evs)
	}
	t := &Trace{AppName: app, Procs: procs, Events: make([]Event, 0, total), AET: aet}
	for _, evs := range perProc {
		t.Events = append(t.Events, evs...)
	}
	return t, nil
}

// Meta returns the trace's header: app name, process count, event
// count and AET.
func (t *Trace) Meta() Meta {
	return Meta{AppName: t.AppName, Procs: t.Procs, Events: uint64(len(t.Events)), AET: t.AET}
}

// PerProcess returns the trace's events grouped by process, in
// per-process order. The returned slices alias the trace.
func (t *Trace) PerProcess() [][]Event {
	// Events are stored grouped by process already (NewTrace appends
	// stream by stream), so slice the runs out.
	out := make([][]Event, t.Procs)
	start := 0
	for p := 0; p < t.Procs; p++ {
		end := start
		for end < len(t.Events) && int(t.Events[end].Process) == p {
			end++
		}
		out[p] = t.Events[start:end:end]
		start = end
	}
	return out
}

// Validate checks structural invariants: grouping, numbering,
// monotone physical times per process, and send/recv relation pairing.
func (t *Trace) Validate() error {
	per := t.PerProcess()
	n := 0
	for _, evs := range per {
		n += len(evs)
	}
	if n != len(t.Events) {
		return fmt.Errorf("trace %q: events not grouped by process", t.AppName)
	}
	type msgKey struct{ src, seq int64 }
	sends := make(map[msgKey]bool, n/2)
	for p, evs := range per {
		var last vtime.Time
		for i := range evs {
			e := &evs[i]
			if e.Number != int64(i) {
				return fmt.Errorf("trace %q: proc %d event %d numbered %d", t.AppName, p, i, e.Number)
			}
			if e.Enter < last {
				return fmt.Errorf("trace %q: proc %d event %d enters at %v before previous exit-enter %v",
					t.AppName, p, i, e.Enter, last)
			}
			if e.Exit < e.Enter {
				return fmt.Errorf("trace %q: proc %d event %d exits before entering", t.AppName, p, i)
			}
			last = e.Enter
			if e.Kind == Send {
				sends[msgKey{e.RelA, e.RelB}] = true
			}
		}
	}
	for p, evs := range per {
		for i := range evs {
			e := &evs[i]
			if e.Kind == Recv && !sends[msgKey{e.RelA, e.RelB}] {
				return fmt.Errorf("trace %q: proc %d recv %d references unknown send (%d,%d)",
					t.AppName, p, i, e.RelA, e.RelB)
			}
		}
	}
	return nil
}

// Stats summarises a trace for reports.
type Stats struct {
	Events      int
	Sends       int
	Recvs       int
	Collectives int
	Bytes       int64
}

// Stats computes event-class counts and total volume.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Events = len(t.Events)
	for i := range t.Events {
		e := &t.Events[i]
		switch e.Kind {
		case Send:
			s.Sends++
			s.Bytes += e.Size
		case Recv:
			s.Recvs++
		case Collective:
			s.Collectives++
			s.Bytes += e.Size
		}
	}
	return s
}
