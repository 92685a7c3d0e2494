package trace

// ChunkBytes returns what the recording's chunks reserve: the memory a
// traced run's events take while its recording lives.
func (r *Recording) ChunkBytes() int {
	n := 0
	for _, chunks := range r.chunks {
		for _, c := range chunks {
			n += cap(c)
		}
	}
	return n
}
