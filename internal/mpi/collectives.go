package mpi

import (
	"fmt"
	"sort"

	"pas2p/internal/network"
	"pas2p/internal/sim"
	"pas2p/internal/trace"
)

// ReduceOp is an elementwise reduction operator.
type ReduceOp int

const (
	Sum ReduceOp = iota
	Prod
	Max
	Min
)

func (op ReduceOp) apply(acc, x []float64) {
	for i := range acc {
		switch op {
		case Sum:
			acc[i] += x[i]
		case Prod:
			acc[i] *= x[i]
		case Max:
			if x[i] > acc[i] {
				acc[i] = x[i]
			}
		case Min:
			if x[i] < acc[i] {
				acc[i] = x[i]
			}
		}
	}
}

// collective runs one synchronising operation and records its event.
func (c *Comm) collective(op network.CollectiveOp, root, size int, payload any) sim.CollInfo {
	idx := c.before()
	rootWorld := 0
	if root >= 0 {
		rootWorld = c.worldPeer(root)
	}
	info := c.p.Collective(op, c.ctx, c.members, rootWorld, size, payload)
	c.recordColl(&info)
	c.after(trace.Collective, idx)
	return info
}

// Barrier blocks until every member arrives.
func (c *Comm) Barrier() {
	c.collective(network.Barrier, 0, 0, nil)
}

// Bcast distributes root's data to every member and returns it; each
// member, root included, gets its own copy.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	size := 0
	var payload any
	if c.rank == root {
		size = 8 * len(data)
		payload = payloadOf(data)
	}
	info := c.collective(network.Bcast, root, size, payload)
	res, _ := info.Payloads[c.memberIdx(root)].([]float64)
	return append([]float64(nil), res...)
}

// Reduce combines every member's data elementwise; the result is
// returned on root (nil elsewhere).
func (c *Comm) Reduce(root int, data []float64, op ReduceOp) []float64 {
	info := c.collective(network.Reduce, root, 8*len(data), payloadOf(data))
	if c.rank != root {
		return nil
	}
	return combine(info.Payloads, op)
}

// Allreduce combines every member's data elementwise; every member
// gets its own copy of the result, which is computed once per
// operation (see sameOnAll).
func (c *Comm) Allreduce(data []float64, op ReduceOp) []float64 {
	info := c.collective(network.Allreduce, 0, 8*len(data), payloadOf(data))
	return c.sameOnAll(&info, func(payloads []any) []float64 { return combine(payloads, op) })
}

// payloadOf is the payload a member contributes to a collective: a
// copy of data, or no payload at all when data is empty.
func payloadOf(data []float64) any {
	if len(data) == 0 {
		return nil
	}
	return append([]float64(nil), data...)
}

// collResults holds the result of each Allreduce or Allgather until
// every member has taken it. These results are the same on every
// member, so the first member to return from the operation computes it
// once, in member order, which gives every member the bits it would
// have computed itself; each later member copies it, and the last
// takes it and deletes the entry. One table serves all the
// run's ranks, which needs no lock: only one rank runs at a time, and
// control passes between them over the engine's channels.
type collResults map[collKey]collResult

// collKey names one collective operation: its communicator context
// and its sequence number there.
type collKey struct{ ctx, seq int }

type collResult struct {
	data []float64
	left int // members that have yet to take the result
}

// sameOnAll returns this member's own copy of the result of a
// collective whose result is the same on every member, computing it
// from the payloads only on the first member to return.
func (c *Comm) sameOnAll(info *sim.CollInfo, compute func(payloads []any) []float64) []float64 {
	k := collKey{ctx: info.Ctx, seq: info.Seq}
	r, ok := c.st.shared[k]
	if !ok {
		r = collResult{data: compute(info.Payloads), left: len(info.Members)}
	}
	if r.left--; r.left == 0 {
		delete(c.st.shared, k)
		return r.data
	}
	c.st.shared[k] = r
	return append([]float64(nil), r.data...)
}

func combine(payloads []any, op ReduceOp) []float64 {
	var acc []float64
	for _, p := range payloads {
		x, _ := p.([]float64)
		if x == nil {
			continue
		}
		if acc == nil {
			acc = append([]float64(nil), x...)
			continue
		}
		if len(x) != len(acc) {
			panic(fmt.Sprintf("mpi: reduce length mismatch: %d vs %d", len(x), len(acc)))
		}
		op.apply(acc, x)
	}
	return acc
}

// Alltoall exchanges equal blocks: member i's send[j*B:(j+1)*B] lands
// in member j's result block i. len(send) must be a multiple of Size().
func (c *Comm) Alltoall(send []float64) []float64 {
	return c.AlltoallSized(send, 8*len(send)/c.size)
}

// AlltoallSized is Alltoall with an explicit per-destination block
// volume for the cost model, decoupling the modelled message size from
// the (possibly miniature) real buffer.
func (c *Comm) AlltoallSized(send []float64, blockBytes int) []float64 {
	if len(send)%c.size != 0 {
		panic(fmt.Sprintf("mpi: alltoall buffer %d not divisible by %d ranks", len(send), c.size))
	}
	block := len(send) / c.size
	info := c.collective(network.Alltoall, 0, blockBytes, payloadOf(send))
	out := make([]float64, len(send))
	for i := range info.Payloads {
		src, _ := info.Payloads[i].([]float64)
		if src == nil {
			continue
		}
		copy(out[i*block:(i+1)*block], src[c.rank*block:(c.rank+1)*block])
	}
	return out
}

// Allgather concatenates every member's contribution in rank order;
// every member gets its own copy, built once per operation (see
// sameOnAll).
func (c *Comm) Allgather(data []float64) []float64 {
	info := c.collective(network.Allgather, 0, 8*len(data), payloadOf(data))
	return c.sameOnAll(&info, concat)
}

// Gather concatenates every member's contribution on root (nil
// elsewhere).
func (c *Comm) Gather(root int, data []float64) []float64 {
	info := c.collective(network.Gather, root, 8*len(data), payloadOf(data))
	if c.rank != root {
		return nil
	}
	return concat(info.Payloads)
}

// concat joins the members' contributions in member order.
func concat(payloads []any) []float64 {
	var out []float64
	for _, p := range payloads {
		x, _ := p.([]float64)
		out = append(out, x...)
	}
	return out
}

// Scatter splits root's buffer into Size() equal blocks and returns
// the caller's block.
func (c *Comm) Scatter(root int, data []float64) []float64 {
	var payload any
	size := 0
	if c.rank == root {
		if len(data)%c.size != 0 {
			panic(fmt.Sprintf("mpi: scatter buffer %d not divisible by %d ranks", len(data), c.size))
		}
		size = 8 * len(data) / c.size
		payload = payloadOf(data)
	}
	info := c.collective(network.Scatter, root, size, payload)
	full, _ := info.Payloads[c.memberIdx(root)].([]float64)
	if full == nil {
		return nil
	}
	block := len(full) / c.size
	return append([]float64(nil), full[c.rank*block:(c.rank+1)*block]...)
}

func (c *Comm) memberIdx(rank int) int {
	if rank < 0 || rank >= c.size {
		panic(fmt.Sprintf("mpi: member rank %d out of range", rank))
	}
	return rank
}

// Split partitions the communicator by color (as MPI_Comm_split with
// key = current rank). Every member must call it; members passing the
// same color form a new communicator ordered by their parent ranks.
// A negative color yields nil (the member joins no new communicator).
func (c *Comm) Split(color int) *Comm {
	// Agree on everyone's color via an allgather on this communicator.
	colors := c.Allgather([]float64{float64(color)})
	// Distinct non-negative colors in sorted order get stable indices.
	distinct := map[int]bool{}
	for _, cf := range colors {
		if cf >= 0 {
			distinct[int(cf)] = true
		}
	}
	var order []int
	for col := range distinct {
		order = append(order, col)
	}
	sort.Ints(order)
	if color < 0 {
		c.splitCount++
		return nil
	}
	colorIdx := sort.SearchInts(order, color)
	var members []int
	var myIdx int
	for r, cf := range colors {
		if int(cf) == color {
			if r == c.rank {
				myIdx = len(members)
			}
			members = append(members, c.members[r])
		}
	}
	ctx := c.ctx*4096 + (c.splitCount+1)*64 + colorIdx + 1
	c.splitCount++
	return &Comm{
		p: c.p, dep: c.dep, ctx: ctx,
		rank: myIdx, size: len(members), members: members,
		st: c.st,
	}
}

// Scan computes the inclusive prefix reduction: member i receives the
// elementwise combination of members 0..i. The cost model treats it
// like a reduction (its communication volume matches).
func (c *Comm) Scan(data []float64, op ReduceOp) []float64 {
	info := c.collective(network.Reduce, 0, 8*len(data), payloadOf(data))
	var acc []float64
	for i := 0; i <= c.rank; i++ {
		x, _ := info.Payloads[i].([]float64)
		if x == nil {
			continue
		}
		if acc == nil {
			acc = append([]float64(nil), x...)
			continue
		}
		if len(x) != len(acc) {
			panic(fmt.Sprintf("mpi: scan length mismatch: %d vs %d", len(x), len(acc)))
		}
		op.apply(acc, x)
	}
	return acc
}

// ReduceScatter combines every member's buffer elementwise and
// scatters the result: member i receives block i of the combined
// vector. len(data) must be a multiple of Size().
func (c *Comm) ReduceScatter(data []float64, op ReduceOp) []float64 {
	if len(data)%c.size != 0 {
		panic(fmt.Sprintf("mpi: reduce_scatter buffer %d not divisible by %d ranks", len(data), c.size))
	}
	info := c.collective(network.Allreduce, 0, 8*len(data)/c.size, payloadOf(data))
	acc := combine(info.Payloads, op)
	block := len(acc) / c.size
	return append([]float64(nil), acc[c.rank*block:(c.rank+1)*block]...)
}

// Alltoallv exchanges variable-size blocks: sendCounts[j] elements go
// to member j; the result concatenates every member's block for this
// rank, and the cost model uses the largest per-destination volume.
func (c *Comm) Alltoallv(send []float64, sendCounts []int) []float64 {
	if len(sendCounts) != c.size {
		panic(fmt.Sprintf("mpi: alltoallv needs %d counts, got %d", c.size, len(sendCounts)))
	}
	total, maxBytes := 0, 0
	for _, n := range sendCounts {
		if n < 0 {
			panic("mpi: negative alltoallv count")
		}
		total += n
		if 8*n > maxBytes {
			maxBytes = 8 * n
		}
	}
	if total != len(send) {
		panic(fmt.Sprintf("mpi: alltoallv counts sum to %d, buffer has %d", total, len(send)))
	}
	payload := alltoallvPayload{data: append([]float64(nil), send...), counts: append([]int(nil), sendCounts...)}
	info := c.collective(network.Alltoall, 0, maxBytes, payload)
	var out []float64
	for _, p := range info.Payloads {
		pv, ok := p.(alltoallvPayload)
		if !ok {
			continue
		}
		off := 0
		for j := 0; j < c.rank; j++ {
			off += pv.counts[j]
		}
		out = append(out, pv.data[off:off+pv.counts[c.rank]]...)
	}
	return out
}

// alltoallvPayload carries a variable-block buffer through the engine.
type alltoallvPayload struct {
	data   []float64
	counts []int
}
