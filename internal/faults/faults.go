// Package faults is a seeded, fully deterministic fault injector for
// the PAS2P pipeline. It follows the same seam pattern as package obs:
// a nil *Injector keeps every layer on its exact fault-free fast path,
// and a live one is threaded through the run configurations
// (sim.Config.Faults, mpi.RunConfig.Faults, signature.Options.Faults,
// predict.Experiment.Faults).
//
// Every fault decision is a pure hash of (seed, fault class, event
// identity) — a splitmix64 chain over the message identity (src, dst,
// per-sender uid), the (phase, rank) of a checkpoint restart, or the
// (rank, sequence) of a compute block. Decisions therefore do not
// depend on call order, goroutine scheduling, or how many other fault
// classes are enabled, so a given seed always reproduces the identical
// fault schedule, and the simulator's bit-identical-timing guarantee
// extends to faulted runs.
//
// Fault classes:
//
//   - message loss: a lost point-to-point message is retransmitted
//     after a virtual-clock retransmission timeout (RTO); up to
//     MaxRetransmits consecutive losses are injected, so delivery is
//     always eventually recovered and the logical communication
//     structure is preserved (only arrival times shift).
//   - message duplication: the duplicate is discarded at the receiver
//     (matching is non-overtaking and keyed by message identity), so
//     the fault is counted and recovered with no structural effect.
//   - message delay: bounded extra network latency on arrival.
//   - rank crash at checkpoint restart: a restart attempt fails with
//     CrashRate; failed attempts are retried with exponential backoff
//     on the virtual clock, bounded by MaxRestartAttempts. An episode
//     that exhausts its retries is unrecovered: the phase is abandoned
//     and the signature executor degrades gracefully (Eq. 1 over the
//     surviving phases).
//   - clock perturbation: multiplicative jitter on compute durations
//     (live runs) and per-process offset+drift skew on recorded trace
//     timestamps (SkewTrace), exercising the machine-independence of
//     the logical ordering.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pas2p/internal/obs"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// Config selects the fault classes and their intensities. The zero
// value injects nothing; New fills the operational knobs (RTO, retry
// bounds, backoff) with defaults when they are left zero.
type Config struct {
	// Seed drives every fault decision; the same seed reproduces the
	// identical fault schedule.
	Seed int64

	// LossRate is the probability a point-to-point message transmission
	// is lost. Each loss costs one RTO before the retransmission; at
	// most MaxRetransmits consecutive losses are injected per message,
	// so delivery always recovers.
	LossRate float64
	// RTO is the retransmission timeout added per lost transmission.
	RTO vtime.Duration
	// MaxRetransmits bounds consecutive losses of one message.
	MaxRetransmits int
	// DupRate is the probability a message is duplicated in flight; the
	// receiver discards the copy.
	DupRate float64
	// DelayRate is the probability a message suffers extra latency,
	// uniform in (0, MaxDelay].
	DelayRate float64
	// MaxDelay bounds the injected extra latency.
	MaxDelay vtime.Duration

	// CrashRate is the probability one rank's checkpoint-restart
	// attempt crashes (rolled independently per attempt).
	CrashRate float64
	// MaxRestartAttempts bounds the retries after a crashed restart;
	// exceeding it abandons the phase (unrecovered).
	MaxRestartAttempts int
	// RestartBackoff is the base of the exponential backoff paid on the
	// virtual clock before the k-th retry (backoff·2^k).
	RestartBackoff vtime.Duration

	// ComputeJitter perturbs each compute block's duration by a factor
	// uniform in [1-j, 1+j].
	ComputeJitter float64
	// ClockSkew offsets each traced process's clock by a per-process
	// constant uniform in [0, ClockSkew) (SkewTrace).
	ClockSkew vtime.Duration
	// ClockDrift scales each traced process's clock by a per-process
	// factor uniform in [1-d, 1+d] (SkewTrace).
	ClockDrift float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"loss", c.LossRate}, {"dup", c.DupRate}, {"delay", c.DelayRate},
		{"crash", c.CrashRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.ComputeJitter < 0 || c.ComputeJitter >= 1 {
		return fmt.Errorf("faults: compute jitter %v outside [0,1)", c.ComputeJitter)
	}
	if c.ClockDrift < 0 || c.ClockDrift >= 1 {
		return fmt.Errorf("faults: clock drift %v outside [0,1)", c.ClockDrift)
	}
	if c.RTO < 0 || c.MaxDelay < 0 || c.RestartBackoff < 0 || c.ClockSkew < 0 {
		return fmt.Errorf("faults: negative duration in config")
	}
	if c.MaxRetransmits < 0 || c.MaxRestartAttempts < 0 {
		return fmt.Errorf("faults: negative retry bound")
	}
	return nil
}

// withDefaults fills operational knobs left at zero.
func (c Config) withDefaults() Config {
	if c.RTO == 0 {
		c.RTO = 200 * vtime.Microsecond
	}
	if c.MaxRetransmits == 0 {
		c.MaxRetransmits = 3
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 100 * vtime.Microsecond
	}
	if c.MaxRestartAttempts == 0 && c.CrashRate < 1 {
		c.MaxRestartAttempts = 3
	}
	if c.RestartBackoff == 0 {
		c.RestartBackoff = 50 * vtime.Millisecond
	}
	return c
}

// Injector makes deterministic fault decisions and counts what it
// injected. All methods are safe on a nil receiver (no faults) and
// safe for concurrent use (decisions are pure; counters are atomic).
type Injector struct {
	cfg  Config
	seed uint64

	// obs receives a flight-recorder event per injected fault. Held
	// atomically so SetObserver is safe against in-flight decisions.
	// Events never influence fault decisions (those are pure hashes),
	// so an attached observer cannot perturb a fault schedule.
	obs atomic.Pointer[obs.Observer]

	msgLost       atomic.Int64
	msgRetransmit atomic.Int64
	msgDup        atomic.Int64
	msgDelayed    atomic.Int64
	crashEpisodes atomic.Int64
	crashFailures atomic.Int64
	phasesLost    atomic.Int64
	clockPerturbs atomic.Int64
	procsSkewed   atomic.Int64
	injected      atomic.Int64
	recovered     atomic.Int64
	unrecovered   atomic.Int64

	pubMu     sync.Mutex
	published Report
}

// New builds an injector; operational knobs left zero get defaults.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, seed: splitmix64(uint64(cfg.Seed) ^ 0xa5a5a5a55a5a5a5a)}, nil
}

// Config returns the (defaulted) configuration; zero on nil.
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Seed returns the configured seed; zero on nil.
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.cfg.Seed
}

// SetObserver attaches an observer whose flight recorder receives one
// structured event per injected fault. Nil receiver and nil observer
// are fine; decisions are unaffected either way.
func (i *Injector) SetObserver(o *obs.Observer) {
	if i == nil {
		return
	}
	i.obs.Store(o)
}

// event forwards to the attached observer's flight recorder; free when
// none is attached.
func (i *Injector) event(kind, msg string, rank int, v int64) {
	if o := i.obs.Load(); o != nil {
		o.Event(kind, msg, rank, v)
	}
}

// Decision streams: each fault class hashes under its own constant so
// enabling one class never changes another's schedule.
const (
	streamLoss uint64 = 0x1d8e4e27c47d124f * (iota + 1)
	streamDup
	streamDelay
	streamDelayAmt
	streamCrash
	streamJitter
	streamSkew
	streamDrift
)

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform float64 in [0,1) determined purely by the
// seed, the stream, and the three keys.
func (i *Injector) roll(stream, a, b, c uint64) float64 {
	z := splitmix64(i.seed ^ stream)
	z = splitmix64(z ^ a)
	z = splitmix64(z ^ b)
	z = splitmix64(z ^ c)
	return float64(z>>11) / (1 << 53)
}

// MsgFault describes the faults injected into one message.
type MsgFault struct {
	// Retransmits is the number of lost transmissions before the
	// successful one; each added one RTO to the arrival.
	Retransmits int
	// Duplicated marks a duplicate discarded by the receiver.
	Duplicated bool
	// Delay is the total extra arrival latency (losses·RTO + extra).
	Delay vtime.Duration
}

// Message decides the faults for one point-to-point message, keyed by
// its global identity (src, dst, per-sender uid). It returns false
// when the message is unaffected. Counters are updated here, so call
// it exactly once per message send.
func (i *Injector) Message(src, dst int, uid int64, size int) (MsgFault, bool) {
	if i == nil {
		return MsgFault{}, false
	}
	c := &i.cfg
	if c.LossRate <= 0 && c.DupRate <= 0 && c.DelayRate <= 0 {
		return MsgFault{}, false
	}
	ka, kb, kc := uint64(src), uint64(dst), uint64(uid)
	var f MsgFault
	if c.LossRate > 0 {
		for f.Retransmits < c.MaxRetransmits &&
			i.roll(streamLoss, ka, kb, kc+uint64(f.Retransmits)<<32) < c.LossRate {
			f.Retransmits++
		}
		if f.Retransmits > 0 {
			f.Delay += vtime.Duration(f.Retransmits) * c.RTO
			i.msgLost.Add(1)
			i.msgRetransmit.Add(int64(f.Retransmits))
			i.noteRecovered()
			i.event("fault.msg_lost",
				fmt.Sprintf("message %d→%d lost, recovered after %d retransmit(s)", src, dst, f.Retransmits),
				src, int64(f.Retransmits))
		}
	}
	if c.DupRate > 0 && i.roll(streamDup, ka, kb, kc) < c.DupRate {
		f.Duplicated = true
		i.msgDup.Add(1)
		i.noteRecovered()
		i.event("fault.msg_dup",
			fmt.Sprintf("message %d→%d duplicated, copy discarded at receiver", src, dst),
			src, 1)
	}
	if c.DelayRate > 0 && i.roll(streamDelay, ka, kb, kc) < c.DelayRate {
		amt := i.roll(streamDelayAmt, ka, kb, kc)
		d := vtime.Duration(math.Ceil(amt * float64(c.MaxDelay)))
		f.Delay += d
		i.msgDelayed.Add(1)
		i.noteRecovered()
		i.event("fault.msg_delay",
			fmt.Sprintf("message %d→%d delayed %v in flight", src, dst, d),
			src, int64(d))
	}
	if f.Retransmits == 0 && !f.Duplicated && f.Delay == 0 {
		return MsgFault{}, false
	}
	return f, true
}

func (i *Injector) noteRecovered() {
	i.injected.Add(1)
	i.recovered.Add(1)
}

// CrashFault is the deterministic crash plan for one rank's restart of
// one phase's checkpoint.
type CrashFault struct {
	// Failures is the number of crashed restart attempts.
	Failures int
	// Recovered is false when the retry bound was exhausted and the
	// phase must be abandoned on this rank.
	Recovered bool
}

// Restart decides the crash plan for (phaseID, rank). Every caller
// computes the same plan from the same keys, so all ranks agree on
// which phases are lost without any coordination. Counters are updated
// here, so evaluate each (phase, rank) pair once per execution.
func (i *Injector) Restart(phaseID, rank int) CrashFault {
	if i == nil || i.cfg.CrashRate <= 0 {
		return CrashFault{Recovered: true}
	}
	c := &i.cfg
	f := CrashFault{}
	for f.Failures <= c.MaxRestartAttempts &&
		i.roll(streamCrash, uint64(phaseID), uint64(rank), uint64(f.Failures)) < c.CrashRate {
		f.Failures++
	}
	f.Recovered = f.Failures <= c.MaxRestartAttempts
	if f.Failures > 0 {
		i.crashEpisodes.Add(1)
		i.crashFailures.Add(int64(f.Failures))
		i.injected.Add(1)
		if f.Recovered {
			i.recovered.Add(1)
			i.event("fault.crash",
				fmt.Sprintf("phase %d restart crashed %d time(s), recovered", phaseID, f.Failures),
				rank, int64(f.Failures))
		} else {
			i.unrecovered.Add(1)
			i.event("fault.crash_unrecovered",
				fmt.Sprintf("phase %d restart exhausted %d attempt(s), unrecovered", phaseID, f.Failures),
				rank, int64(f.Failures))
		}
	}
	return f
}

// NotePhaseLost records a phase abandoned after an unrecovered crash.
func (i *Injector) NotePhaseLost(phaseID int) {
	if i == nil {
		return
	}
	i.phasesLost.Add(1)
	i.event("fault.phase_lost",
		fmt.Sprintf("phase %d abandoned after unrecovered crash; signature degrades to surviving phases", phaseID),
		-1, int64(phaseID))
}

// Jitter returns the multiplicative clock perturbation for the seq-th
// compute block of a rank; 1 when jitter is disabled.
func (i *Injector) Jitter(rank int, seq int64) float64 {
	if i == nil || i.cfg.ComputeJitter <= 0 {
		return 1
	}
	i.clockPerturbs.Add(1)
	r := i.roll(streamJitter, uint64(rank), uint64(seq), 0)
	return 1 + i.cfg.ComputeJitter*(2*r-1)
}

// SkewTrace returns a copy of the trace with each process's physical
// clock perturbed by a deterministic per-process offset (ClockSkew)
// and drift factor (ClockDrift), with per-process compute payloads
// recomputed from the skewed timestamps. Per-process monotonicity is
// preserved; cross-process orderings may invert — exactly the clock
// incoherence the PAS2P logical ordering is designed to absorb. The
// input trace is not modified. With both knobs zero (or a nil
// injector) the input is returned unchanged.
func (i *Injector) SkewTrace(tr *trace.Trace) (*trace.Trace, error) {
	if i == nil || (i.cfg.ClockSkew <= 0 && i.cfg.ClockDrift <= 0) {
		return tr, nil
	}
	per := tr.PerProcess()
	streams := make([][]trace.Event, tr.Procs)
	var maxExit vtime.Time
	for p, evs := range per {
		offset := vtime.Duration(math.Floor(
			i.roll(streamSkew, uint64(p), 0, 0) * float64(i.cfg.ClockSkew)))
		drift := 1.0
		if i.cfg.ClockDrift > 0 {
			drift = 1 + i.cfg.ClockDrift*(2*i.roll(streamDrift, uint64(p), 0, 0)-1)
		}
		out := make([]trace.Event, len(evs))
		var prevExit vtime.Time
		for k, ev := range evs {
			ev.Enter = vtime.Time(offset) + scaleTime(ev.Enter, drift)
			ev.Exit = vtime.Time(offset) + scaleTime(ev.Exit, drift)
			if ev.Exit < ev.Enter {
				ev.Exit = ev.Enter
			}
			ev.ComputeBefore = ev.Enter.Sub(prevExit)
			if ev.ComputeBefore < 0 {
				ev.ComputeBefore = 0
			}
			prevExit = ev.Exit
			if vt := ev.Exit; vt > maxExit {
				maxExit = vt
			}
			out[k] = ev
		}
		streams[p] = out
		i.procsSkewed.Add(1)
	}
	aet := tr.AET
	if vtime.Duration(maxExit) > aet {
		aet = vtime.Duration(maxExit)
	}
	i.event("fault.skew_trace",
		fmt.Sprintf("perturbed %d process clocks (skew %v, drift %v)", tr.Procs, i.cfg.ClockSkew, i.cfg.ClockDrift),
		-1, int64(tr.Procs))
	return trace.NewTrace(tr.AppName, tr.Procs, streams, aet)
}

func scaleTime(t vtime.Time, f float64) vtime.Time {
	if f == 1 {
		return t
	}
	return vtime.Time(math.Round(float64(t) * f))
}

// Report is a snapshot of the injector's fault accounting. Injected,
// Recovered and Unrecovered count recoverable fault events (message
// faults and crash episodes); clock perturbations and skewed processes
// are tracked separately because they are not recoverable events.
type Report struct {
	Seed                             int64
	Injected, Recovered, Unrecovered int64
	MsgLost, MsgRetransmits          int64
	MsgDuplicated, MsgDelayed        int64
	CrashEpisodes, CrashFailures     int64
	PhasesLost                       int64
	ClockPerturbations, ProcsSkewed  int64
}

// Report snapshots the counters; zero on nil.
func (i *Injector) Report() Report {
	if i == nil {
		return Report{}
	}
	return Report{
		Seed:               i.cfg.Seed,
		Injected:           i.injected.Load(),
		Recovered:          i.recovered.Load(),
		Unrecovered:        i.unrecovered.Load(),
		MsgLost:            i.msgLost.Load(),
		MsgRetransmits:     i.msgRetransmit.Load(),
		MsgDuplicated:      i.msgDup.Load(),
		MsgDelayed:         i.msgDelayed.Load(),
		CrashEpisodes:      i.crashEpisodes.Load(),
		CrashFailures:      i.crashFailures.Load(),
		PhasesLost:         i.phasesLost.Load(),
		ClockPerturbations: i.clockPerturbs.Load(),
		ProcsSkewed:        i.procsSkewed.Load(),
	}
}

// String renders the report for CLI output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults (seed %d): %d injected, %d recovered, %d unrecovered",
		r.Seed, r.Injected, r.Recovered, r.Unrecovered)
	fmt.Fprintf(&b, "\n  messages : %d lost (%d retransmits), %d duplicated, %d delayed",
		r.MsgLost, r.MsgRetransmits, r.MsgDuplicated, r.MsgDelayed)
	fmt.Fprintf(&b, "\n  crashes  : %d episodes (%d failed restarts), %d phases lost",
		r.CrashEpisodes, r.CrashFailures, r.PhasesLost)
	fmt.Fprintf(&b, "\n  clocks   : %d compute perturbations, %d processes skewed",
		r.ClockPerturbations, r.ProcsSkewed)
	return b.String()
}

// Publish adds the counter deltas accumulated since the previous
// Publish to the registry's faults.* counters, so repeated publishes
// (one per pipeline stage or run) never double-count. A nil injector
// or registry is a no-op.
func (i *Injector) Publish(reg *obs.Registry) {
	if i == nil || reg == nil {
		return
	}
	i.pubMu.Lock()
	defer i.pubMu.Unlock()
	cur, prev := i.Report(), i.published
	add := func(name string, now, before int64) {
		if d := now - before; d > 0 {
			reg.Counter(name).Add(d)
		}
	}
	add("faults.injected", cur.Injected, prev.Injected)
	add("faults.recovered", cur.Recovered, prev.Recovered)
	add("faults.unrecovered", cur.Unrecovered, prev.Unrecovered)
	add("faults.msg_lost", cur.MsgLost, prev.MsgLost)
	add("faults.msg_retransmits", cur.MsgRetransmits, prev.MsgRetransmits)
	add("faults.msg_duplicated", cur.MsgDuplicated, prev.MsgDuplicated)
	add("faults.msg_delayed", cur.MsgDelayed, prev.MsgDelayed)
	add("faults.crash_episodes", cur.CrashEpisodes, prev.CrashEpisodes)
	add("faults.crash_failures", cur.CrashFailures, prev.CrashFailures)
	add("faults.phases_lost", cur.PhasesLost, prev.PhasesLost)
	add("faults.clock_perturbations", cur.ClockPerturbations, prev.ClockPerturbations)
	add("faults.procs_skewed", cur.ProcsSkewed, prev.ProcsSkewed)
	i.published = cur
}

// ParseSpec builds an injector from a CLI fault specification: a
// comma-separated list of key=value terms, e.g.
//
//	loss=0.05,dup=0.01,delay=0.1,crash=0.2,jitter=0.01,skew=5ms
//
// Keys: loss, dup, delay, crash, jitter, drift (rates/fractions);
// rto, maxdelay, backoff, skew (durations, time.ParseDuration syntax);
// retrans, attempts (integer retry bounds). delay also accepts the
// rate:maxduration shorthand delay=0.1:2ms.
func ParseSpec(seed int64, spec string) (*Injector, error) {
	cfg := Config{Seed: seed}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		k, v, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("faults: term %q is not key=value", term)
		}
		var err error
		switch k {
		case "loss":
			cfg.LossRate, err = parseRate(v)
		case "dup":
			cfg.DupRate, err = parseRate(v)
		case "delay":
			if rate, dur, has := strings.Cut(v, ":"); has {
				if cfg.DelayRate, err = parseRate(rate); err == nil {
					cfg.MaxDelay, err = parseDur(dur)
				}
			} else {
				cfg.DelayRate, err = parseRate(v)
			}
		case "crash":
			cfg.CrashRate, err = parseRate(v)
		case "jitter":
			cfg.ComputeJitter, err = parseRate(v)
		case "drift":
			cfg.ClockDrift, err = parseRate(v)
		case "rto":
			cfg.RTO, err = parseDur(v)
		case "maxdelay":
			cfg.MaxDelay, err = parseDur(v)
		case "backoff":
			cfg.RestartBackoff, err = parseDur(v)
		case "skew":
			cfg.ClockSkew, err = parseDur(v)
		case "retrans":
			cfg.MaxRetransmits, err = strconv.Atoi(v)
		case "attempts":
			cfg.MaxRestartAttempts, err = strconv.Atoi(v)
		default:
			return nil, fmt.Errorf("faults: unknown key %q (loss, dup, delay, crash, jitter, drift, rto, maxdelay, backoff, skew, retrans, attempts)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: term %q: %v", term, err)
		}
	}
	return New(cfg)
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return v, nil
}

func parseDur(s string) (vtime.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return vtime.Duration(d.Nanoseconds()), nil
}
