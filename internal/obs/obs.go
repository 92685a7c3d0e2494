package obs

import (
	"runtime"
	"time"
)

// Observer bundles the sinks a pipeline run reports into: a metrics
// registry (always, when observing at all) and an optional timeline.
// A nil *Observer is the universal "not observing" value — every
// method on it, and on the nil *Span it hands out, is a no-op that
// performs no allocation, so instrumented code threads an Observer
// unconditionally and pays nothing when none is configured.
type Observer struct {
	Registry *Registry
	Timeline *Timeline
	// Flight, when non-nil, receives structured events (fault
	// injections, repository quarantines, deadlock reports, ...) into
	// a bounded ring for live /flight scrapes and crash dumps.
	Flight *FlightRecorder
}

// New returns an Observer with a fresh registry and no timeline.
func New() *Observer { return &Observer{Registry: NewRegistry()} }

// NewWithTimeline returns an Observer with a fresh registry and
// timeline.
func NewWithTimeline() *Observer {
	return &Observer{Registry: NewRegistry(), Timeline: NewTimeline()}
}

// Reg returns the registry, nil when not observing.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// TL returns the timeline, nil when not observing or metrics-only.
func (o *Observer) TL() *Timeline {
	if o == nil {
		return nil
	}
	return o.Timeline
}

// FR returns the flight recorder, nil when not observing or when no
// recorder is configured.
func (o *Observer) FR() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// Event records one structured event in the flight recorder. The
// nil path — nil Observer or no recorder — is allocation-free, so
// instrumented code (fault decisions on simulator rank coroutines
// included) calls it unconditionally. Rank is -1 for events that are
// not rank-scoped; v is a kind-specific scalar.
func (o *Observer) Event(kind, msg string, rank int, v int64) {
	if o == nil || o.Flight == nil {
		return
	}
	o.Flight.Record(kind, msg, rank, v)
}

// MetricsOnly returns an Observer sharing this one's registry and
// flight recorder but with no timeline — used for auxiliary runs whose
// counters matter but whose per-event tracks would only bloat the
// trace file. Returns nil when o is nil or has no registry.
func (o *Observer) MetricsOnly() *Observer {
	if o == nil || o.Registry == nil {
		return nil
	}
	if o.Timeline == nil {
		return o
	}
	return &Observer{Registry: o.Registry, Flight: o.Flight}
}

// SpanCounter is one stage-specific counter attached to a span.
type SpanCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// SpanRecord is a completed span as stored in the registry and
// rendered into snapshots.
type SpanRecord struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// WallNS is the span's wall-clock duration in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Allocs and AllocBytes are the heap allocation count and byte
	// deltas across the span, read from runtime.MemStats. They cover
	// the whole process, so concurrent work (worker pools, parallel
	// Analyze calls) is attributed to every span open at the time.
	Allocs     uint64        `json:"allocs"`
	AllocBytes uint64        `json:"alloc_bytes"`
	Counters   []SpanCounter `json:"counters,omitempty"`
}

// Span is one in-flight pipeline stage. Obtain with Observer.StartSpan
// and finish with End; a nil Span (from a nil Observer) swallows every
// call for free.
type Span struct {
	reg          *Registry
	rec          SpanRecord
	startMallocs uint64
	startBytes   uint64
}

// StartSpan opens a span. On a nil Observer (or one without a
// registry) it returns nil without allocating.
func (o *Observer) StartSpan(name string) *Span {
	if o == nil || o.Registry == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Span{
		reg:          o.Registry,
		rec:          SpanRecord{Name: name, Start: time.Now()},
		startMallocs: ms.Mallocs,
		startBytes:   ms.TotalAlloc,
	}
}

// SetCounter attaches (or overwrites) a stage-specific counter.
func (s *Span) SetCounter(name string, v int64) {
	if s == nil {
		return
	}
	for i := range s.rec.Counters {
		if s.rec.Counters[i].Name == name {
			s.rec.Counters[i].Value = v
			return
		}
	}
	s.rec.Counters = append(s.rec.Counters, SpanCounter{Name: name, Value: v})
}

// End closes the span and records it in the registry.
func (s *Span) End() {
	if s == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.rec.WallNS = time.Since(s.rec.Start).Nanoseconds()
	s.rec.Allocs = ms.Mallocs - s.startMallocs
	s.rec.AllocBytes = ms.TotalAlloc - s.startBytes
	s.reg.addSpan(s.rec)
}
