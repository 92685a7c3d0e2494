package logical

// taken marks a send-table slot whose send a receive has already
// taken. Send LTs are never negative.
const taken = -1

// sendTable holds the LT of each point-to-point send under the name a
// receive gives it in RelA/RelB: (sender, per-sender send sequence).
// A sender's sequence numbers are dense and recorded in order, so the
// table keeps one window of LTs per sender, indexed by sequence minus
// the window's base, instead of hashing the pair. A key outside every
// window names a send not yet recorded or already taken, the same
// answer a map lookup miss gives.
type sendTable struct {
	win  [][]int64 // win[p][i]: LT of p's send number base[p]+i, or taken
	base []int64
	head []int // win[p][:head[p]] is all taken
}

func newSendTable(procs int) *sendTable {
	return &sendTable{
		win:  make([][]int64, procs),
		base: make([]int64, procs),
		head: make([]int, procs),
	}
}

// put records the LT of process p's next send.
func (t *sendTable) put(p int32, lt int64) { t.win[p] = append(t.win[p], lt) }

// slot returns the window slot of send (src, seq), or nil when the
// table holds no untaken send of that name. Any key is safe: a sender
// or sequence out of range is a miss, never an index panic.
func (t *sendTable) slot(src, seq int64) *int64 {
	if uint64(src) >= uint64(len(t.win)) {
		return nil
	}
	w := t.win[src]
	i := uint64(seq - t.base[src])
	if i >= uint64(len(w)) || w[i] == taken {
		return nil
	}
	return &w[i]
}

// sent reports whether send (src, seq) has been put, taken or not.
func (t *sendTable) sent(src, seq int64) bool {
	return uint64(src) < uint64(len(t.win)) && seq >= 0 && seq < t.base[src]+int64(len(t.win[src]))
}

// take returns the LT of send (src, seq) and marks it taken, so a
// second receive of the same send misses. Taken slots at the front of
// the sender's window are dropped, so a run whose sends are all
// received holds only its unmatched frontier.
func (t *sendTable) take(src, seq int64) (int64, bool) {
	s := t.slot(src, seq)
	if s == nil {
		return 0, false
	}
	lt := *s
	*s = taken
	w, h := t.win[src], t.head[src]
	for h < len(w) && w[h] == taken {
		h++
	}
	switch {
	case h == len(w):
		// All taken: refill from the front, where the cache is warm.
		t.win[src] = w[:0]
		t.base[src] += int64(h)
		h = 0
	case h > 1024 && h*2 >= len(w):
		n := copy(w, w[h:])
		t.win[src] = w[:n]
		t.base[src] += int64(h)
		h = 0
	}
	t.head[src] = h
	return lt, true
}
