// Package simpoint implements the related-work baseline PAS2P is
// contrasted with in §2: SimPoint-style phase detection (Sherwood et
// al. [21], Perelman et al. [15]). Instead of growing phases until
// communication repeats, the execution is chopped into fixed-length
// intervals, each interval is summarised as a behaviour vector (a
// histogram over communication signatures, the message-passing
// analogue of basic-block vectors), the vectors are clustered with
// k-means, and one representative interval per cluster is selected for
// measurement — weights are cluster populations.
//
// The result is produced as a phase.Analysis, so the identical
// signature construction/execution machinery runs on top of it; the
// ablation benchmarks compare prediction quality and signature length
// against the paper's repeat-detection algorithm.
package simpoint

import (
	"fmt"
	"math"

	"pas2p/internal/logical"
	"pas2p/internal/phase"
	"pas2p/internal/vtime"
)

// Config tunes the detector.
type Config struct {
	// IntervalTicks is the fixed interval length in logical ticks.
	IntervalTicks int
	// K is the number of clusters (simulation points).
	K int
	// Dim is the behaviour-vector dimensionality (signatures are
	// hashed into this many buckets).
	Dim int
	// MaxIter bounds the k-means iterations.
	MaxIter int
	// RelevanceFraction mirrors phase.Config's rule when converting to
	// a phase.Analysis.
	RelevanceFraction float64
}

// DefaultConfig mirrors common SimPoint practice scaled to our traces.
func DefaultConfig() Config {
	return Config{IntervalTicks: 16, K: 6, Dim: 64, MaxIter: 50, RelevanceFraction: 0.01}
}

func (c Config) validate() error {
	if c.IntervalTicks <= 0 || c.K <= 0 || c.Dim <= 0 || c.MaxIter <= 0 {
		return fmt.Errorf("simpoint: non-positive parameter in %+v", c)
	}
	return nil
}

// Extract chops the logical trace into intervals, clusters them, and
// returns the clustering as a phase.Analysis (one phase per cluster,
// one occurrence per interval).
func Extract(l *logical.Logical, cfg Config) (*phase.Analysis, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if l == nil || l.NumTicks() == 0 {
		return nil, fmt.Errorf("simpoint: empty logical trace")
	}
	nTicks := l.NumTicks()
	nIv := (nTicks + cfg.IntervalTicks - 1) / cfg.IntervalTicks
	k := cfg.K
	if k > nIv {
		k = nIv
	}

	// Behaviour vectors: hashed signature histograms, L2-normalised.
	vecs := make([][]float64, nIv)
	for iv := 0; iv < nIv; iv++ {
		v := make([]float64, cfg.Dim)
		lo := iv * cfg.IntervalTicks
		hi := lo + cfg.IntervalTicks
		if hi > nTicks {
			hi = nTicks
		}
		for t := lo; t < hi; t++ {
			for _, s := range l.Ticks[t] {
				e := &l.Trace.Events[s.Event]
				v[int(e.CommSignature()%uint64(cfg.Dim))]++
			}
		}
		normalise(v)
		vecs[iv] = v
	}

	labels := kmeans(vecs, k, cfg.MaxIter)

	// Physical cut points, as in phase extraction: occurrence
	// durations tile the run exactly.
	cuts := make([]vtime.Time, nTicks+1)
	var hw vtime.Time
	for t := 0; t < nTicks; t++ {
		cuts[t] = hw
		for _, s := range l.Ticks[t] {
			if x := l.Trace.Events[s.Event].Exit; x > hw {
				hw = x
			}
		}
	}
	cuts[nTicks] = hw

	an := &phase.Analysis{
		Logical: l,
		Ticks:   nTicks,
		Config: phase.Config{
			EventSimilarity:   1,
			ComputeSimilarity: 1,
			VolumeSimilarity:  1,
			RelevanceFraction: cfg.RelevanceFraction,
		},
		AET: l.Trace.AET,
	}
	byCluster := make([][]phase.Occurrence, k)
	for iv := 0; iv < nIv; iv++ {
		lo := iv * cfg.IntervalTicks
		hi := lo + cfg.IntervalTicks
		if hi > nTicks {
			hi = nTicks
		}
		byCluster[labels[iv]] = append(byCluster[labels[iv]], phase.Occurrence{
			StartTick: lo, EndTick: hi, Dur: cuts[hi].Sub(cuts[lo]),
		})
	}
	id := 1
	for c := 0; c < k; c++ {
		if len(byCluster[c]) == 0 {
			continue
		}
		an.Phases = append(an.Phases, &phase.Phase{
			ID:          id,
			TickLen:     cfg.IntervalTicks,
			Occurrences: byCluster[c],
		})
		id++
	}
	if len(an.Phases) == 0 {
		return nil, fmt.Errorf("simpoint: clustering produced no phases")
	}
	return an, nil
}

func normalise(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

func dist2(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}

// kmeans clusters deterministically: the first centroid is vector 0
// and subsequent seeds are farthest-first; Lloyd iterations follow.
func kmeans(vecs [][]float64, k, maxIter int) []int {
	n := len(vecs)
	dim := len(vecs[0])
	cents := make([][]float64, k)
	cents[0] = append([]float64(nil), vecs[0]...)
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = dist2(vecs[i], cents[0])
	}
	for c := 1; c < k; c++ {
		far, farD := 0, -1.0
		for i := range vecs {
			if minD[i] > farD {
				far, farD = i, minD[i]
			}
		}
		cents[c] = append([]float64(nil), vecs[far]...)
		for i := range vecs {
			if d := dist2(vecs[i], cents[c]); d < minD[i] {
				minD[i] = d
			}
		}
	}

	labels := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.MaxFloat64
			for c := range cents {
				if d := dist2(v, cents[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, v := range vecs {
			counts[labels[i]]++
			s := sums[labels[i]]
			for j := range v {
				s[j] += v[j]
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				continue // keep the stale centroid (deterministic)
			}
			for j := range cents[c] {
				cents[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return labels
}
