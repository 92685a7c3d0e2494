package trace

// ChunkBytes returns what the chunks of a closed recording that nobody
// has read reserve: the memory a traced run's events take while its
// recording lives.
func (r *Recording) ChunkBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed || r.drained {
		panic("trace: ChunkBytes of a recording that is open or read")
	}
	n := 0
	for _, chunks := range r.queued {
		for _, c := range chunks {
			n += cap(c)
		}
	}
	return n
}

// HeldLimit returns the most chunk bytes the recording lets a live
// drain leave unread before its recorders wait.
func (r *Recording) HeldLimit() int { return r.limit }

// HeldStats returns the most chunk bytes the recording held at once,
// published and not yet read back, and how many full-size chunks its
// recorders made and took back from its reader.
func (r *Recording) HeldStats() (peak, made, reused int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak, r.made, r.reused
}

// IDColumn returns the ID column of every record of a v2 tracefile, in
// file order.
func IDColumn(data []byte) []uint64 { return idColumn(data) }

// MaskIDsAndBlockCRCs returns a copy of a v2 tracefile with every
// record's ID column and every block CRC zeroed.
func MaskIDsAndBlockCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	records, blockCRCs := recordLayout(data)
	for _, off := range records {
		clear(out[off : off+8])
	}
	for _, off := range blockCRCs {
		clear(out[off : off+4])
	}
	return out
}
