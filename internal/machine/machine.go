// Package machine models target parallel machines: node topology,
// per-core compute rates, memory contention, interconnect parameters
// and process-to-core mapping policies. A Deployment (a Cluster plus a
// mapping of ranks onto cores) supplies the simulation engine with the
// two quantities it needs: how long a block of computation takes on a
// given rank, and which network path class connects two ranks.
package machine

import (
	"fmt"
	"math"

	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// MaxRanks caps the rank count of a deployment and MaxCores a
// cluster's Nodes x CoresPerNode. Laying out a deployment allocates per
// rank and per core, so an unchecked count from a request body or a
// custom cluster file could exhaust memory before any simulation
// starts. The largest in-tree uses are 256 ranks (Table 7) and 256
// cores (cluster C); the caps leave wide headroom above both.
const (
	MaxRanks = 1 << 16
	MaxCores = 1 << 20
)

// Cluster describes one target machine, mirroring the rows of the
// paper's Table 2.
type Cluster struct {
	// Name labels the machine in reports ("Cluster A", ...).
	Name string
	// ISA is the instruction-set architecture. Signatures built on one
	// ISA cannot be ported to a machine with a different ISA (§7 of
	// the paper); the signature layer enforces this.
	ISA string
	// Nodes and CoresPerNode define the topology.
	Nodes        int
	CoresPerNode int
	// CoreGFLOPS is the sustained per-core compute rate used to turn
	// declared work (flop counts) into virtual time.
	CoreGFLOPS float64
	// MemContention is the fractional slowdown added per additional
	// active rank on the same node (crude shared memory-bus model):
	// a compute block runs at CoreGFLOPS/(1+MemContention·(k-1)) with
	// k active ranks per node.
	MemContention float64
	// Interconnect is the inter-node path; IntraNode the shared-memory
	// path between ranks on the same node.
	Interconnect network.Params
	IntraNode    network.Params
	// Topology optionally makes inter-node paths distance-dependent
	// (fat tree or torus); the zero value is a flat fabric.
	Topology Topology
	// NICContention serialises inter-node messages on each node's
	// network interface: a message cannot begin injection before the
	// sender node's NIC finished the previous one, and cannot start
	// landing before the receiver node's NIC is free. Off, links have
	// infinite capacity (the classic LogGP assumption).
	NICContention bool
	// AlgorithmicCollectives costs collectives by walking the standard
	// algorithms' rounds over the actual member paths (binomial trees,
	// recursive doubling, rings), so members complete at individually
	// skewed instants. Off, every member completes at one analytic
	// instant.
	AlgorithmicCollectives bool
}

// Cores returns the total core count of the cluster.
func (c *Cluster) Cores() int { return c.Nodes * c.CoresPerNode }

// Validate reports a descriptive error for nonsensical cluster models.
func (c *Cluster) Validate() error {
	switch {
	case c.Nodes <= 0 || c.CoresPerNode <= 0:
		return fmt.Errorf("machine %q: topology %d nodes x %d cores invalid", c.Name, c.Nodes, c.CoresPerNode)
	case c.Nodes > MaxCores/c.CoresPerNode:
		return fmt.Errorf("machine %q: topology %d nodes x %d cores exceeds the %d-core cap",
			c.Name, c.Nodes, c.CoresPerNode, MaxCores)
	case c.CoreGFLOPS <= 0:
		return fmt.Errorf("machine %q: CoreGFLOPS must be positive", c.Name)
	case c.MemContention < 0:
		return fmt.Errorf("machine %q: MemContention must be non-negative", c.Name)
	case !c.Interconnect.Valid():
		return fmt.Errorf("machine %q: invalid interconnect parameters", c.Name)
	case !c.IntraNode.Valid():
		return fmt.Errorf("machine %q: invalid intra-node parameters", c.Name)
	}
	if c.Topology.Kind != TopoFlat {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Restrict validates the cluster and cuts it down to the whole nodes
// holding the given number of cores, rounding up, as the paper's
// scaling experiments restrict a target. 0 keeps every core; any other
// value must lie in [1, Cores()].
func (c *Cluster) Restrict(cores int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if cores == 0 {
		return nil
	}
	if cores < 0 || cores > c.Cores() {
		return fmt.Errorf("machine %q: core restriction %d outside [1, %d] (0 = all cores)",
			c.Name, cores, c.Cores())
	}
	c.Nodes = (cores + c.CoresPerNode - 1) / c.CoresPerNode
	return nil
}

// Deploy lays ranks out block-wise on the named Table 2 preset,
// restricted to the given number of cores (see Restrict; 0 = all).
func Deploy(name string, cores, ranks int) (*Deployment, error) {
	c := ByName(name)
	if c == nil {
		return nil, fmt.Errorf("unknown cluster %q (use A, B, C or D)", name)
	}
	if err := c.Restrict(cores); err != nil {
		return nil, err
	}
	return NewDeployment(c, ranks, MapBlock)
}

// MappingPolicy selects how ranks are laid out over nodes and cores.
type MappingPolicy int

const (
	// MapBlock fills each node's cores before moving to the next node
	// (consecutive ranks share nodes). This is the default policy.
	MapBlock MappingPolicy = iota
	// MapCyclic deals ranks round-robin across nodes (consecutive
	// ranks land on different nodes).
	MapCyclic
)

func (m MappingPolicy) String() string {
	switch m {
	case MapBlock:
		return "block"
	case MapCyclic:
		return "cyclic"
	default:
		return "mapping(?)"
	}
}

// Placement locates one rank on the machine.
type Placement struct {
	Node int
	Core int // core index within the node
}

// Deployment binds a number of ranks to a cluster under a mapping
// policy. When Ranks exceeds the core count, ranks are oversubscribed
// onto cores (e.g. the paper's Table 7 runs 256 processes on the
// 128-core cluster A with two processes per core) and compute is
// slowed by the per-core share.
type Deployment struct {
	Cluster *Cluster
	Ranks   int
	Policy  MappingPolicy

	place     []Placement
	perCore   []int     // ranks sharing each (node,core), indexed per rank
	perNode   []int     // active ranks on the node of each rank
	computeNS []float64 // per-rank virtual ns per flop, precomputed
}

// NewDeployment validates and lays out ranks on the cluster.
func NewDeployment(c *Cluster, ranks int, policy MappingPolicy) (*Deployment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if ranks <= 0 || ranks > MaxRanks {
		return nil, fmt.Errorf("deployment on %q: rank count %d outside [1, %d]", c.Name, ranks, MaxRanks)
	}
	d := &Deployment{Cluster: c, Ranks: ranks, Policy: policy}
	d.layout()
	return d, nil
}

func (d *Deployment) layout() {
	c := d.Cluster
	cores := c.Cores()
	d.place = make([]Placement, d.Ranks)
	coreLoad := make([]int, cores) // ranks per global core slot
	nodeLoad := make([]int, c.Nodes)
	for r := 0; r < d.Ranks; r++ {
		var slot int // global core index
		switch d.Policy {
		case MapCyclic:
			// Deal across nodes first, then across cores, wrapping
			// for oversubscription.
			round := r / cores
			pos := r % cores
			node := pos % c.Nodes
			core := pos / c.Nodes
			slot = node*c.CoresPerNode + core
			_ = round
		default: // MapBlock
			slot = r % cores
		}
		node := slot / c.CoresPerNode
		d.place[r] = Placement{Node: node, Core: slot % c.CoresPerNode}
		coreLoad[slot]++
		nodeLoad[node]++
	}
	d.perCore = make([]int, d.Ranks)
	d.perNode = make([]int, d.Ranks)
	d.computeNS = make([]float64, d.Ranks)
	for r := 0; r < d.Ranks; r++ {
		p := d.place[r]
		slot := p.Node*c.CoresPerNode + p.Core
		d.perCore[r] = coreLoad[slot]
		d.perNode[r] = nodeLoad[p.Node]
		// Effective rate: per-core rate divided by core sharing and by
		// the memory-contention factor of co-resident active ranks.
		active := nodeLoad[p.Node]
		if active > c.CoresPerNode {
			active = c.CoresPerNode // a core runs one rank at a time
		}
		rate := c.CoreGFLOPS * 1e9 / float64(d.perCore[r]) /
			(1 + c.MemContention*float64(active-1))
		d.computeNS[r] = 1e9 / rate // ns per flop
	}
}

// Equal reports whether two deployments are the same machine with the
// same layout: equal cluster models, rank counts and mapping policies.
// The layout is a pure function of these three, so the simulator runs
// any application identically on equal deployments. A NaN field never
// compares equal, so it makes the deployments unequal.
func (d *Deployment) Equal(o *Deployment) bool {
	if d == o {
		return true
	}
	if d == nil || o == nil || d.Cluster == nil || o.Cluster == nil {
		return false
	}
	return *d.Cluster == *o.Cluster && d.Ranks == o.Ranks && d.Policy == o.Policy
}

// Place returns the node/core assignment of a rank.
func (d *Deployment) Place(rank int) Placement { return d.place[rank] }

// SameNode reports whether two ranks share a node.
func (d *Deployment) SameNode(a, b int) bool {
	return d.place[a].Node == d.place[b].Node
}

// ComputeTime converts a flop count into virtual time on the given
// rank, including core-sharing and memory-contention slowdowns.
func (d *Deployment) ComputeTime(rank int, flops float64) vtime.Duration {
	if flops <= 0 || math.IsNaN(flops) {
		return 0
	}
	return vtime.Duration(math.Round(flops * d.computeNS[rank]))
}

// Path returns the network parameters governing a message from src to
// dst: the shared-memory path when they share a node, the (optionally
// topology-distance-dependent) interconnect otherwise. Self-messages
// use the intra-node path as well.
func (d *Deployment) Path(src, dst int) network.Params {
	if d.SameNode(src, dst) {
		return d.Cluster.IntraNode
	}
	t := &d.Cluster.Topology
	if t.Kind == TopoFlat {
		return d.Cluster.Interconnect
	}
	hops := t.Hops(d.place[src].Node, d.place[dst].Node, d.Cluster.Nodes)
	return t.pathAcross(d.Cluster.Interconnect, hops)
}

// CollectivePath returns the parameters used to cost a collective over
// the given members: intra-node if all members share one node, the
// interconnect otherwise.
func (d *Deployment) CollectivePath(members []int) network.Params {
	if len(members) == 0 {
		return d.Cluster.IntraNode
	}
	node := d.place[members[0]].Node
	for _, m := range members[1:] {
		if d.place[m].Node != node {
			return d.Cluster.Interconnect
		}
	}
	return d.Cluster.IntraNode
}

// MinLatency returns the smallest latency of any path class; the
// simulator's conservative wildcard-receive rule uses it as a lower
// bound on how soon a not-yet-sent message could arrive.
func (d *Deployment) MinLatency() vtime.Duration {
	l := d.Cluster.Interconnect.Latency
	if d.Cluster.IntraNode.Latency < l {
		l = d.Cluster.IntraNode.Latency
	}
	return l
}

// Oversubscription returns the largest number of ranks sharing a core.
func (d *Deployment) Oversubscription() int {
	max := 1
	for _, k := range d.perCore {
		if k > max {
			max = k
		}
	}
	return max
}

// String summarises the deployment for reports, naming the cluster's
// run-model switches when they are on.
func (d *Deployment) String() string {
	var on string
	if d.Cluster.NICContention {
		on += ", NIC contention"
	}
	if d.Cluster.AlgorithmicCollectives {
		on += ", algorithmic collectives"
	}
	return fmt.Sprintf("%s: %d ranks on %d nodes x %d cores (%s mapping, %dx oversubscribed%s)",
		d.Cluster.Name, d.Ranks, d.Cluster.Nodes, d.Cluster.CoresPerNode, d.Policy, d.Oversubscription(), on)
}
