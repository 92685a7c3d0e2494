//go:build go1.23

package sim

// The constraint above raises this file's language version to go1.23,
// which iter.Pull needs, while the module still says go 1.22. A
// go1.22 toolchain drops the file and cannot build the package.

import (
	"fmt"
	"iter"
)

// start makes rank ps a coroutine. Nothing of the rank runs until the
// scheduler first calls ps.next; from then on, the rank runs only
// between a next and its yield, its return or its panic, so the
// scheduler and the ranks never run at once.
func (e *Engine) start(ps *procState) {
	p := &Proc{eng: e, st: ps}
	ps.next, ps.stop = iter.Pull(func(yield func(struct{}) bool) {
		ps.yield = yield
		rankMain(p, e.cfg.Body)
	})
}

// rankMain runs one rank's body on its coroutine. Completion and
// panics mutate engine state directly — safe because the rank is the
// one running — and then return, which hands control back to the
// scheduler. A rank that the engine aborts unwinds with errAborted,
// which ends the coroutine quietly.
func rankMain(p *Proc, body func(*Proc)) {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			if r == errAborted {
				return // engine is shutting down
			}
			p.st.status = stDone
			e.err = fmt.Errorf("rank %d %w: %v", p.st.rank, ErrRankPanic, r)
		}
	}()
	body(p)
	p.st.status = stDone
	e.doneCount++
	if p.st.retired {
		e.retiredLive--
	}
}

// abort ends every live rank's coroutine after a failed or settled
// run, so the process keeps no goroutine of the run. Each rank gets a
// poison result, and stop makes a parked rank's yield return false, so
// it unwinds with errAborted; a rank never scheduled ends without
// running its body.
func (e *Engine) abort() {
	for _, ps := range e.procs {
		if ps.status == stDone {
			continue
		}
		ps.pending = result{aborted: true}
		ps.stop()
	}
}
