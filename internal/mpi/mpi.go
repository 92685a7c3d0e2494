// Package mpi is the message-passing API that applications in this
// repository are written against. It plays the role MPI plays for the
// paper's workloads: point-to-point and collective operations with
// standard semantics, executed on the deterministic simulator of
// package sim over a modelled cluster.
//
// The package also hosts the PAS2P instrumentation boundary. Exactly
// like the original libpas2p intercepting MPI calls via LD_PRELOAD,
// every operation here can be recorded into a trace (with a modelled
// per-event overhead, reproducing the paper's Table 9 instrumented run
// times) and can be intercepted by a controller — the mechanism the
// signature executor uses to fast-forward between phases and measure
// inside them.
package mpi

import (
	"fmt"

	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/obs"
	"pas2p/internal/sim"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// AnySource and AnyTag are wildcards for Recv/Irecv.
const (
	AnySource = sim.AnySource
	AnyTag    = sim.AnyTag
)

// App is a parallel program: Body runs once per rank.
type App struct {
	Name  string
	Procs int
	Body  func(c *Comm)
}

// Interceptor observes every communication operation of one rank; the
// signature executor implements it to drive checkpoint/skip/measure
// modes. Init runs on the rank before any application code, and After
// runs once each operation completed (eventIndex is the index of its
// event).
type Interceptor interface {
	Init(c *Comm)
	After(c *Comm, kind trace.Kind, eventIndex int64)
}

// PAS2PEventOverhead is the virtual CPU cost PAS2P's instrumentation
// adds per recorded event, which the paper's Table 9 charges to
// AETPAS2P. Every front door that traces an application to build a
// signature charges it, so they all build the same signature.
const PAS2PEventOverhead = 8 * vtime.Microsecond

// RunConfig configures one execution of an App.
type RunConfig struct {
	// Deployment places the app's ranks on a modelled cluster.
	Deployment *machine.Deployment
	// Trace enables event recording on every rank, into the
	// recording Start hands out and RunResult.Recording hands back.
	Trace bool
	// EventOverhead is the virtual CPU cost the instrumentation adds
	// per recorded event (zero when Trace is false). Zero charges
	// nothing; PAS2PEventOverhead is the paper's cost.
	EventOverhead vtime.Duration
	// NewInterceptor, if non-nil, supplies a per-rank interceptor.
	NewInterceptor func(rank int) Interceptor
	// Observer, when non-nil, forwards run metrics and (optionally) a
	// per-rank virtual-time timeline to the observability layer (see
	// sim.Config.Observer).
	Observer *obs.Observer
	// Faults, when non-nil, injects deterministic message and clock
	// faults into the run (see sim.Config.Faults).
	Faults *faults.Injector
	// TimelinePID and TimelineLabel forward to sim.Config.TimelinePID /
	// TimelineName: a pre-allocated timeline process to reuse, or a
	// label for a fresh one.
	TimelinePID   int
	TimelineLabel string
}

// RunResult reports one execution.
type RunResult struct {
	// Elapsed is the run's virtual makespan (the AET when
	// uninstrumented, the AETPAS2P when traced).
	Elapsed vtime.Duration
	// Recording holds every rank's recorded events, where they were
	// recorded (nil unless RunConfig.Trace). It is closed and is read
	// once: unless it was drained while the run went on (Start),
	// stage A drains it or a tracefile writer assembles its Trace.
	Recording *trace.Recording
	// Stats are the simulator's traffic counters.
	Stats sim.Result
}

// Run executes the application to completion.
func Run(app App, cfg RunConfig) (*RunResult, error) {
	run, err := Start(app, cfg)
	if err != nil {
		return nil, err
	}
	return run.Wait()
}

// Running is an execution in flight. Its Recording (nil unless
// RunConfig.Trace) is live while the run goes on: a Drain reader reads
// it as the ranks record it. The run waits for that reader only when
// the chunks it has not read reach the recording's bound, and the
// recording is closed however the run ends.
type Running struct {
	Recording *trace.Recording

	done  chan struct{}
	res   *RunResult
	err   error
	panic any
}

// Start begins executing the application on a goroutine of its own,
// which ends with the run; the caller must Wait for it, which returns
// its result.
func Start(app App, cfg RunConfig) (*Running, error) {
	if app.Procs <= 0 {
		return nil, fmt.Errorf("mpi: app %q has %d procs", app.Name, app.Procs)
	}
	if cfg.Deployment == nil {
		return nil, fmt.Errorf("mpi: app %q: nil deployment", app.Name)
	}
	if cfg.Deployment.Ranks != app.Procs {
		return nil, fmt.Errorf("mpi: app %q wants %d procs but deployment has %d ranks",
			app.Name, app.Procs, cfg.Deployment.Ranks)
	}
	run := &Running{done: make(chan struct{})}
	if cfg.Trace {
		run.Recording = trace.StartRecording(app.Name, app.Procs)
	}
	world := worldMembers(app.Procs)
	shared := collResults{}
	body := func(p *sim.Proc) {
		c := &Comm{
			p:    p,
			dep:  cfg.Deployment,
			ctx:  0,
			rank: p.Rank(), size: p.Size(),
			members: world,
			st:      &rankState{overhead: cfg.EventOverhead, shared: shared},
		}
		if cfg.Trace {
			c.st.rec = run.Recording.Recorder(p.Rank())
		}
		if cfg.NewInterceptor != nil {
			c.st.icept = cfg.NewInterceptor(p.Rank())
			c.st.icept.Init(c)
		}
		app.Body(c)
		if cfg.Trace {
			// The rank records nothing more: a reader of its stream
			// need not wait for the other ranks to learn that.
			c.st.rec.End()
		}
	}
	go func() {
		var elapsed vtime.Duration
		defer func() {
			// A panic of the engine itself resurfaces on Wait's caller.
			run.panic = recover()
			if run.Recording != nil {
				run.Recording.Close(elapsed)
			}
			close(run.done)
		}()
		res, err := sim.Run(sim.Config{
			Deployment: cfg.Deployment, Body: body, Name: app.Name,
			Observer:     cfg.Observer,
			Faults:       cfg.Faults,
			TimelinePID:  cfg.TimelinePID,
			TimelineName: cfg.TimelineLabel,
		})
		if err != nil {
			run.err = err
			return
		}
		elapsed = vtime.Duration(res.Finish)
		run.res = &RunResult{Elapsed: elapsed, Recording: run.Recording, Stats: res}
	}()
	return run, nil
}

// Wait waits for the run to end and returns its result.
func (run *Running) Wait() (*RunResult, error) {
	<-run.done
	if run.panic != nil {
		panic(run.panic)
	}
	return run.res, run.err
}

func worldMembers(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// Comm is one rank's communicator handle (the world communicator; Split
// derives subsets). All methods must be called from the rank's body.
type Comm struct {
	p          *sim.Proc
	dep        *machine.Deployment
	ctx        int
	rank, size int
	members    []int // world ranks of this communicator's members
	splitCount int

	// st is shared by every communicator of the same rank, so event
	// and send counters are global per process, as the phase table
	// requires.
	st *rankState
}

// rankState is the per-process instrumentation state shared by all of
// a rank's communicators.
type rankState struct {
	rec        *trace.Recorder
	overhead   vtime.Duration
	icept      Interceptor
	eventIndex int64
	sends      int64
	// waitIDs is the request-id scratch every wait of the rank reuses.
	waitIDs []int
	// shared is the run's table of collective results, the same map
	// on every rank.
	shared collResults
}

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return c.size }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.p.Rank() }

// Now returns the rank's current virtual time.
func (c *Comm) Now() vtime.Time { return c.p.Now() }

// EventIndex returns the number of communication events this rank has
// performed so far across all communicators (the replay position used
// by phase boundaries).
func (c *Comm) EventIndex() int64 { return c.st.eventIndex }

// Sends returns the number of send events this rank has performed, the
// counter the paper's phase table is keyed by.
func (c *Comm) Sends() int64 { return c.st.sends }

// Compute performs flops worth of computation: virtual time advances
// by the deployment's machine model for this rank.
func (c *Comm) Compute(flops float64) {
	c.p.Advance(c.dep.ComputeTime(c.p.Rank(), flops))
}

// Elapse advances virtual time by a raw duration (used by the tool
// layers to model restart costs; applications should prefer Compute).
func (c *Comm) Elapse(d vtime.Duration) { c.p.Advance(d) }

// SetMode adjusts operation costing for this rank (tool layers only).
func (c *Comm) SetMode(computeScale float64, commFree bool) {
	c.p.SetMode(sim.Mode{ComputeScale: computeScale, CommFree: commFree})
}

// Retire puts this rank in free mode for the rest of the run (tool
// layers only); see sim.Proc.Retire. A run whose ranks have all
// retired ends without simulating the rest, with the same makespan.
func (c *Comm) Retire() { c.p.Retire() }

// TimelineOn reports whether this run records a timeline; callers
// guard annotation-string construction with it.
func (c *Comm) TimelineOn() bool { return c.p.TimelineOn() }

// Annotate marks this rank's timeline track with an instant event at
// the current virtual time (no-op without a timeline).
func (c *Comm) Annotate(name string) { c.p.Annotate(name) }

// worldPeer translates a communicator rank to a world rank.
func (c *Comm) worldPeer(r int) int {
	if r == AnySource {
		return AnySource
	}
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, c.size))
	}
	return c.members[r]
}

// commRank translates a world rank back to this communicator's rank.
func (c *Comm) commRank(world int) int {
	if world < 0 || c.size == c.p.Size() {
		// Members are world ranks in ascending order (Split keeps its
		// parent's order), so a communicator as large as the world is
		// the world, and the translation is the identity.
		return world
	}
	for i, m := range c.members {
		if m == world {
			return i
		}
	}
	return -1
}

func (c *Comm) before() int64 {
	idx := c.st.eventIndex
	if c.st.rec != nil && c.st.overhead > 0 {
		c.p.Advance(c.st.overhead)
	}
	return idx
}

func (c *Comm) after(kind trace.Kind, idx int64) {
	c.st.eventIndex++
	if kind == trace.Send {
		c.st.sends++
	}
	if c.st.icept != nil {
		c.st.icept.After(c, kind, idx)
	}
}

func (c *Comm) recordPtP(info *sim.PtPInfo) {
	if c.st.rec == nil {
		return
	}
	kind := trace.Recv
	peer := info.Src
	if info.IsSend {
		kind = trace.Send
		peer = info.Dst
	}
	c.st.rec.Record(&trace.Event{
		Kind: kind, Involved: 2, CollOp: -1,
		Peer: int32(peer), Tag: int32(info.Tag), Size: int64(info.Size),
		Enter: info.Start, Exit: info.End,
		RelA: int64(info.Src), RelB: info.SendSeq,
	})
}

func (c *Comm) recordColl(info *sim.CollInfo) {
	if c.st.rec == nil {
		return
	}
	c.st.rec.Record(&trace.Event{
		Kind: trace.Collective, Involved: int32(len(info.Members)),
		CollOp: int8(info.Op), Peer: -1, Tag: int32(info.Ctx),
		Size:  int64(info.Size),
		Enter: info.Start, Exit: info.End,
		RelA: int64(info.Ctx), RelB: int64(info.Seq),
	})
}

// Send transmits data to dst (communicator rank) and blocks per MPI
// semantics (eager completes locally; large messages rendezvous).
func (c *Comm) Send(dst, tag int, data []float64) {
	idx := c.before()
	payload := append([]float64(nil), data...)
	info := c.p.Send(c.worldPeer(dst), tag, 8*len(data), payload)
	c.recordPtP(&info)
	c.after(trace.Send, idx)
}

// SendN transmits size bytes of pattern-only payload.
func (c *Comm) SendN(dst, tag, size int) {
	idx := c.before()
	info := c.p.Send(c.worldPeer(dst), tag, size, nil)
	c.recordPtP(&info)
	c.after(trace.Send, idx)
}

// Recv blocks for a matching message and returns its data and source
// (communicator rank).
func (c *Comm) Recv(src, tag int) ([]float64, int) {
	idx := c.before()
	info := c.p.Recv(c.worldPeer(src), tag)
	c.recordPtP(&info)
	c.after(trace.Recv, idx)
	data, _ := info.Payload.([]float64)
	return data, c.commRank(info.Src)
}

// RecvN blocks for a matching pattern-only message, returning its size
// and source.
func (c *Comm) RecvN(src, tag int) (int, int) {
	idx := c.before()
	info := c.p.Recv(c.worldPeer(src), tag)
	c.recordPtP(&info)
	c.after(trace.Recv, idx)
	return info.Size, c.commRank(info.Src)
}

// Request identifies an outstanding nonblocking operation.
type Request struct {
	id int
}

// Isend starts a nonblocking send.
func (c *Comm) Isend(dst, tag int, data []float64) Request {
	idx := c.before()
	payload := append([]float64(nil), data...)
	id := c.p.Isend(c.worldPeer(dst), tag, 8*len(data), payload)
	c.after(trace.Send, idx)
	return Request{id: id}
}

// IsendN starts a nonblocking pattern-only send.
func (c *Comm) IsendN(dst, tag, size int) Request {
	idx := c.before()
	id := c.p.Isend(c.worldPeer(dst), tag, size, nil)
	c.after(trace.Send, idx)
	return Request{id: id}
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int) Request {
	idx := c.before()
	id := c.p.Irecv(c.worldPeer(src), tag)
	c.after(trace.Recv, idx)
	return Request{id: id}
}

// Wait completes the given requests and returns the received payloads
// (nil entries for sends), in argument order.
func (c *Comm) Wait(reqs ...Request) [][]float64 {
	if len(reqs) == 0 {
		return nil
	}
	infos := c.wait(reqs...)
	out := make([][]float64, len(infos))
	for i := range infos {
		if !infos[i].IsSend {
			out[i], _ = infos[i].Payload.([]float64)
		}
	}
	return out
}

// wait completes the given requests, records them, and returns their
// infos in argument order. The slice is the rank's sim wait buffer
// (see sim.Proc.Wait), so wait allocates nothing.
func (c *Comm) wait(reqs ...Request) []sim.PtPInfo {
	ids := c.st.waitIDs[:0]
	for _, r := range reqs {
		ids = append(ids, r.id)
	}
	c.st.waitIDs = ids
	infos := c.p.Wait(ids...)
	// Record the batch in canonical order — sends first, then
	// receives, each in request order. Completion order would be
	// machine-dependent (the nondeterminism PAS2P ordering exists to
	// remove), and recording a receive ahead of the batch's sends can
	// create cycles in the logical-ordering traversal when the peer
	// does the same.
	for i := range infos {
		if infos[i].IsSend {
			c.recordPtP(&infos[i])
		}
	}
	for i := range infos {
		if !infos[i].IsSend {
			c.recordPtP(&infos[i])
		}
	}
	return infos
}

// Sendrecv posts a receive, sends, and waits for both — the safe
// symmetric-exchange primitive.
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) []float64 {
	r := c.Irecv(src, recvTag)
	s := c.Isend(dst, sendTag, data)
	got, _ := c.wait(r, s)[0].Payload.([]float64)
	return got
}

// SendrecvN is the pattern-only variant of Sendrecv.
func (c *Comm) SendrecvN(dst, sendTag, sendSize, src, recvTag int) {
	r := c.Irecv(src, recvTag)
	s := c.IsendN(dst, sendTag, sendSize)
	c.wait(r, s)
}
