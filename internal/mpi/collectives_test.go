package mpi

import (
	"math"
	"math/rand"
	"testing"
)

// memberData is the contribution of world rank w to round r of the
// collectives on communicator comm: 0 to 3 random values. Any rank can
// compute any member's contribution, so each member can work out a
// collective's answer on its own.
func memberData(comm, r, w int) []float64 {
	rng := rand.New(rand.NewSource(int64(comm)<<40 | int64(r)<<20 | int64(w)))
	out := make([]float64, r%4)
	for i := range out {
		out[i] = rng.NormFloat64() * 10
	}
	return out
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSharedResultsMatchOracle checks Allreduce and Allgather, whose
// result the first member to return computes for every member,
// against each member computing the result itself from every member's
// contribution, bit for bit. It runs every reduce operator on random
// payloads, on the world communicator and on two Split communicators,
// whose collectives interleave with the world's. Each member scribbles
// over its result once it has checked it, so a result shared between
// members fails the check of the next one to return. When the run
// ends, no result may be left in the shared table.
func TestSharedResultsMatchOracle(t *testing.T) {
	const procs, rounds = 6, 40
	ops := []ReduceOp{Sum, Prod, Max, Min}
	var table collResults
	runApp(t, procs, func(c *Comm) {
		table = c.st.shared
		comms := []*Comm{c, c.Split(c.Rank() % 2), c.Split(c.Rank() % 3)}
		members := make([][]int, len(comms))
		for k, cm := range comms {
			members[k] = cm.members
		}
		for r := 0; r < rounds; r++ {
			// A member that returns first computes the result and
			// moves on to the next communicator's collective before
			// the others have taken theirs, so results of several
			// communicators share the table.
			for k, cm := range comms {
				payloads := make([]any, len(members[k]))
				for i, w := range members[k] {
					payloads[i] = memberData(k, r, w)
				}
				mine := memberData(k, r, c.Rank())
				var got, want []float64
				if r%3 == 2 {
					got, want = cm.Allgather(mine), concat(payloads)
				} else {
					op := ops[(r+k)%len(ops)]
					got, want = cm.Allreduce(mine, op), combine(payloads, op)
				}
				if !sameBits(got, want) {
					t.Errorf("rank %d comm %d round %d: got %v, want %v", c.Rank(), k, r, got, want)
				}
				for i := range got {
					got[i] = float64(-1 - c.Rank())
				}
			}
		}
	}, RunConfig{Trace: true})
	if len(table) != 0 {
		t.Errorf("%d results left in the shared table after the run", len(table))
	}
}

// TestBcastResultsAreOwned: every Bcast member gets its own slice, so
// a member writing into its result leaves the others' unchanged.
func TestBcastResultsAreOwned(t *testing.T) {
	runApp(t, 3, func(c *Comm) {
		var data []float64
		if c.Rank() == 0 {
			data = []float64{1}
		}
		got := c.Bcast(0, data)
		if c.Rank() == 1 {
			got[0] = 99
		}
		c.Barrier()
		if c.Rank() == 2 && got[0] != 1 {
			t.Errorf("rank 2 Bcast result = %v after rank 1 wrote into its own, want [1]", got)
		}
	}, RunConfig{})
}
