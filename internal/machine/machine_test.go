package machine

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, c := range Presets() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestPresetCoreCounts(t *testing.T) {
	// Table 2 core counts: A=128, B=64, C=256, D=176 (paper says 169
	// usable; we model full nodes).
	if got := ClusterA().Cores(); got != 128 {
		t.Errorf("cluster A cores = %d, want 128", got)
	}
	if got := ClusterB().Cores(); got != 64 {
		t.Errorf("cluster B cores = %d, want 64", got)
	}
	if got := ClusterC().Cores(); got != 256 {
		t.Errorf("cluster C cores = %d, want 256", got)
	}
	if ClusterD().Cores() < 169 {
		t.Errorf("cluster D cores = %d, want >= 169", ClusterD().Cores())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"A", "b", "Cluster C", "d"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("Z") != nil {
		t.Error("ByName(Z) should be nil")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []func(*Cluster){
		func(c *Cluster) { c.Nodes = 0 },
		func(c *Cluster) { c.CoresPerNode = -1 },
		func(c *Cluster) { c.CoreGFLOPS = 0 },
		func(c *Cluster) { c.MemContention = -0.1 },
		func(c *Cluster) { c.Interconnect.Bandwidth = 0 },
		func(c *Cluster) { c.IntraNode.Latency = -1 },
		func(c *Cluster) { c.Nodes = MaxCores },                     // above the core cap
		func(c *Cluster) { c.Nodes, c.CoresPerNode = 1<<40, 1<<40 }, // product overflows
	}
	for i, mutate := range cases {
		c := ClusterA()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewDeploymentRejectsBadRanks(t *testing.T) {
	if _, err := NewDeployment(ClusterA(), 0, MapBlock); err == nil {
		t.Error("0 ranks should be rejected")
	}
	if _, err := NewDeployment(ClusterA(), -4, MapBlock); err == nil {
		t.Error("negative ranks should be rejected")
	}
	for _, ranks := range []int{MaxRanks + 1, 1 << 40} {
		if _, err := NewDeployment(ClusterA(), ranks, MapBlock); err == nil {
			t.Errorf("%d ranks, above the cap, should be rejected", ranks)
		}
	}
}

// TestRestrict: a core restriction keeps whole nodes, rounding up, and
// accepts only 0 (all cores) or 1 up to the cluster's core count.
func TestRestrict(t *testing.T) {
	for _, tc := range []struct{ cores, nodes int }{
		{0, 8}, {1, 1}, {8, 1}, {9, 2}, {64, 8},
	} {
		c := ClusterB() // 8 nodes x 8 cores
		if err := c.Restrict(tc.cores); err != nil {
			t.Fatalf("Restrict(%d): %v", tc.cores, err)
		}
		if c.Nodes != tc.nodes {
			t.Errorf("Restrict(%d): %d nodes, want %d", tc.cores, c.Nodes, tc.nodes)
		}
	}
	for _, cores := range []int{-1, 65, 1 << 40} {
		if err := ClusterB().Restrict(cores); err == nil {
			t.Errorf("Restrict(%d) on 64 cores should fail", cores)
		}
	}
	d, err := Deploy("B", 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cluster.Nodes != 2 || d.Oversubscription() != 2 {
		t.Errorf("Deploy(B, 16 cores, 32 ranks) = %s", d)
	}
	if _, err := Deploy("Z", 0, 4); err == nil || !strings.Contains(err.Error(), `unknown cluster "Z"`) {
		t.Errorf("Deploy of an unknown preset: %v", err)
	}
}

func TestBlockMappingPacksNodes(t *testing.T) {
	d, err := NewDeployment(ClusterB(), 16, MapBlock) // 8 cores/node
	if err != nil {
		t.Fatal(err)
	}
	if !d.SameNode(0, 7) {
		t.Error("ranks 0 and 7 should share node 0 under block mapping")
	}
	if d.SameNode(7, 8) {
		t.Error("ranks 7 and 8 should be on different nodes under block mapping")
	}
}

func TestCyclicMappingSpreadsNodes(t *testing.T) {
	d, err := NewDeployment(ClusterB(), 16, MapCyclic)
	if err != nil {
		t.Fatal(err)
	}
	if d.SameNode(0, 1) {
		t.Error("ranks 0 and 1 should be on different nodes under cyclic mapping")
	}
	if !d.SameNode(0, 8) {
		t.Error("ranks 0 and 8 should wrap onto the same node under cyclic mapping")
	}
}

func TestOversubscription(t *testing.T) {
	// Table 7 scenario: 256 ranks on cluster A's 128 cores.
	d, err := NewDeployment(ClusterA(), 256, MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Oversubscription(); got != 2 {
		t.Errorf("oversubscription = %d, want 2", got)
	}
	// Compute must be at least 2x slower than on a non-shared core.
	d1, _ := NewDeployment(ClusterA(), 128, MapBlock)
	t256 := d.ComputeTime(0, 1e6)
	t128 := d1.ComputeTime(0, 1e6)
	if t256 < 2*t128 {
		t.Errorf("oversubscribed compute %v should be >= 2x dedicated %v", t256, t128)
	}
}

func TestComputeTimeScalesWithRate(t *testing.T) {
	da, _ := NewDeployment(ClusterA(), 1, MapBlock)
	db, _ := NewDeployment(ClusterB(), 1, MapBlock)
	// Cluster B cores are faster: same work, less time.
	if db.ComputeTime(0, 1e9) >= da.ComputeTime(0, 1e9) {
		t.Error("cluster B should compute faster than cluster A")
	}
	if da.ComputeTime(0, 0) != 0 || da.ComputeTime(0, -10) != 0 {
		t.Error("non-positive work should take zero time")
	}
}

func TestMemContentionSlowsSharedNodes(t *testing.T) {
	full, _ := NewDeployment(ClusterC(), 16, MapBlock) // fills one 16-core node
	solo, _ := NewDeployment(ClusterC(), 1, MapBlock)
	if full.ComputeTime(0, 1e6) <= solo.ComputeTime(0, 1e6) {
		t.Error("a fully loaded node should compute slower per rank")
	}
}

func TestPathSelection(t *testing.T) {
	d, _ := NewDeployment(ClusterA(), 4, MapBlock) // 2 cores/node
	intra := d.Path(0, 1)
	inter := d.Path(0, 2)
	if intra.Latency >= inter.Latency {
		t.Error("intra-node latency should be below inter-node latency")
	}
	if got := d.Path(3, 3); got.Latency != intra.Latency {
		t.Error("self messages should use the intra-node path")
	}
}

func TestCollectivePath(t *testing.T) {
	d, _ := NewDeployment(ClusterA(), 4, MapBlock)
	if d.CollectivePath([]int{0, 1}).Latency != d.Cluster.IntraNode.Latency {
		t.Error("same-node collective should use intra-node path")
	}
	if d.CollectivePath([]int{0, 1, 2}).Latency != d.Cluster.Interconnect.Latency {
		t.Error("cross-node collective should use the interconnect")
	}
	if !d.CollectivePath(nil).Valid() {
		t.Error("empty member list should still return a valid path")
	}
}

func TestMinLatency(t *testing.T) {
	d, _ := NewDeployment(ClusterA(), 2, MapBlock)
	if d.MinLatency() != d.Cluster.IntraNode.Latency {
		t.Error("min latency should be the intra-node latency")
	}
}

func TestDeploymentString(t *testing.T) {
	d, _ := NewDeployment(ClusterA(), 256, MapBlock)
	s := d.String()
	for _, want := range []string{"Cluster A", "256 ranks", "block", "2x"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if MapCyclic.String() != "cyclic" || MappingPolicy(9).String() != "mapping(?)" {
		t.Error("MappingPolicy.String wrong")
	}
}

// Property: every rank gets a placement within topology bounds, under
// both policies, for any rank count.
func TestQuickPlacementBounds(t *testing.T) {
	err := quick.Check(func(ranks uint8, cyclic bool) bool {
		n := int(ranks)%512 + 1
		policy := MapBlock
		if cyclic {
			policy = MapCyclic
		}
		d, err := NewDeployment(ClusterC(), n, policy)
		if err != nil {
			return false
		}
		for r := 0; r < n; r++ {
			p := d.Place(r)
			if p.Node < 0 || p.Node >= d.Cluster.Nodes ||
				p.Core < 0 || p.Core >= d.Cluster.CoresPerNode {
				return false
			}
			if d.ComputeTime(r, 1000) <= 0 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestClusterJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := ClusterC()
	orig.NICContention, orig.AlgorithmicCollectives = true, true
	if err := SaveCluster(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCluster(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestLoadClusterRejectsInvalid(t *testing.T) {
	if _, err := LoadCluster(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadCluster(strings.NewReader(`{"Name":"x","Nodes":0}`)); err == nil {
		t.Error("invalid model should fail validation")
	}
	bad := ClusterA()
	bad.CoreGFLOPS = -1
	var buf bytes.Buffer
	if err := SaveCluster(&buf, bad); err == nil {
		t.Error("saving an invalid model should fail")
	}
}

func TestTopologyValidation(t *testing.T) {
	good := Topology{Kind: TopoFatTree, Radix: 8, HopLatency: 200, HopBandwidthTaper: 0.7}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Topology{
		{Kind: TopoFatTree, Radix: 1, HopBandwidthTaper: 1},
		{Kind: TopoFatTree, Radix: 8, HopLatency: -1, HopBandwidthTaper: 1},
		{Kind: TopoTorus2D, HopBandwidthTaper: 0},
		{Kind: TopoTorus2D, HopBandwidthTaper: 1.5},
		{Kind: TopologyKind(9), HopBandwidthTaper: 1},
	}
	for i, tc := range cases {
		if err := tc.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, tc)
		}
	}
	if TopoFatTree.String() != "fat-tree" || TopoFlat.String() != "flat" ||
		TopoTorus2D.String() != "torus2d" || TopologyKind(9).String() != "topology(?)" {
		t.Error("topology names wrong")
	}
}

func TestFatTreeHops(t *testing.T) {
	topo := Topology{Kind: TopoFatTree, Radix: 4, HopLatency: 500, HopBandwidthTaper: 0.5}
	// Radix 4: 2 nodes per edge switch, 4 per pod.
	if h := topo.Hops(0, 0, 16); h != 0 {
		t.Errorf("self hops = %d", h)
	}
	if h := topo.Hops(0, 1, 16); h != 1 {
		t.Errorf("same-edge hops = %d, want 1", h)
	}
	if h := topo.Hops(0, 2, 16); h != 3 {
		t.Errorf("same-pod hops = %d, want 3", h)
	}
	if h := topo.Hops(0, 8, 16); h != 5 {
		t.Errorf("cross-pod hops = %d, want 5", h)
	}
}

func TestTorusHops(t *testing.T) {
	topo := Topology{Kind: TopoTorus2D, HopBandwidthTaper: 1}
	// 16 nodes = 4x4 torus.
	if h := topo.Hops(0, 1, 16); h != 1 {
		t.Errorf("neighbour hops = %d", h)
	}
	if h := topo.Hops(0, 3, 16); h != 1 {
		t.Errorf("wraparound hops = %d, want 1", h)
	}
	if h := topo.Hops(0, 10, 16); h != 4 {
		t.Errorf("diagonal hops = %d, want 4 (2+2)", h)
	}
}

func TestTopologyAffectsPath(t *testing.T) {
	c := ClusterC()
	c.Topology = Topology{Kind: TopoFatTree, Radix: 4, HopLatency: 2 * 1000, HopBandwidthTaper: 0.6}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(c, c.Cores(), MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	near := d.Path(0, 16)  // nodes 0 and 1: same edge switch
	far := d.Path(0, 8*16) // node 8: different pod (radix 4 -> pods of 4)
	if far.Latency <= near.Latency {
		t.Errorf("cross-pod latency %v should exceed same-edge %v", far.Latency, near.Latency)
	}
	if far.Bandwidth >= near.Bandwidth {
		t.Errorf("cross-pod bandwidth %v should taper below %v", far.Bandwidth, near.Bandwidth)
	}
	// Intra-node stays untouched.
	if d.Path(0, 1).Latency != c.IntraNode.Latency {
		t.Error("intra-node path must not be affected by topology")
	}
}

func TestTopologyChangesAppTiming(t *testing.T) {
	// The same cross-node exchange must slow down on a tapered fat
	// tree versus the flat fabric.
	flat := ClusterC()
	tree := ClusterC()
	tree.Topology = Topology{Kind: TopoFatTree, Radix: 4, HopLatency: 20 * 1000, HopBandwidthTaper: 0.5}
	dFlat, _ := NewDeployment(flat, 64, MapCyclic)
	dTree, _ := NewDeployment(tree, 64, MapCyclic)
	// Under cyclic mapping ranks 0 and 8 land on nodes 0 and 8 —
	// different pods in a radix-4 tree.
	if dTree.Path(0, 8).Latency <= dFlat.Path(0, 8).Latency {
		t.Error("tree path should be slower for distant nodes")
	}
}

// TestDeploymentEqual: separately built deployments of the same preset
// are equal; a different cluster name, network parameter, rank count or
// mapping policy, or a NaN field, makes them unequal.
func TestDeploymentEqual(t *testing.T) {
	mk := func(mutate func(*Cluster), ranks int, policy MappingPolicy) *Deployment {
		t.Helper()
		c := ClusterC()
		mutate(c)
		d, err := NewDeployment(c, ranks, policy)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	keep := func(*Cluster) {}
	d := mk(keep, 16, MapBlock)
	if !d.Equal(d) {
		t.Error("a deployment must equal itself")
	}
	if twin := mk(keep, 16, MapBlock); !d.Equal(twin) || !twin.Equal(d) {
		t.Error("separately built equal deployments compare unequal")
	}
	for name, other := range map[string]*Deployment{
		"name":      mk(func(c *Cluster) { c.Name = "Cluster C'" }, 16, MapBlock),
		"latency":   mk(func(c *Cluster) { c.Interconnect.Latency++ }, 16, MapBlock),
		"eager":     mk(func(c *Cluster) { c.IntraNode.EagerLimit++ }, 16, MapBlock),
		"ranks":     mk(keep, 32, MapBlock),
		"policy":    mk(keep, 16, MapCyclic),
		"NaN taper": mk(func(c *Cluster) { c.Topology.HopBandwidthTaper = math.NaN() }, 16, MapBlock),
		"NIC":       mk(func(c *Cluster) { c.NICContention = true }, 16, MapBlock),
		"algcoll":   mk(func(c *Cluster) { c.AlgorithmicCollectives = true }, 16, MapBlock),
	} {
		if d.Equal(other) || other.Equal(d) {
			t.Errorf("deployments differing in %s compare equal", name)
		}
	}
	var none *Deployment
	if d.Equal(none) || none.Equal(d) {
		t.Error("a deployment must not equal nil")
	}
}

// TestDeploymentStringNamesSwitches: the report line of a deployment
// whose cluster turns on NIC contention or algorithmic collectives
// names each switch, so it never reads like the preset's line.
func TestDeploymentStringNamesSwitches(t *testing.T) {
	mk := func(nic, alg bool) string {
		t.Helper()
		c := ClusterA()
		c.NICContention, c.AlgorithmicCollectives = nic, alg
		d, err := NewDeployment(c, 16, MapBlock)
		if err != nil {
			t.Fatal(err)
		}
		return d.String()
	}
	const preset = "Cluster A: 16 ranks on 64 nodes x 2 cores (block mapping, 1x oversubscribed)"
	if got := mk(false, false); got != preset {
		t.Fatalf("preset line = %q, want %q", got, preset)
	}
	for _, c := range []struct {
		nic, alg bool
		want     string
	}{
		{true, false, "(block mapping, 1x oversubscribed, NIC contention)"},
		{false, true, "(block mapping, 1x oversubscribed, algorithmic collectives)"},
		{true, true, "(block mapping, 1x oversubscribed, NIC contention, algorithmic collectives)"},
	} {
		if got := mk(c.nic, c.alg); !strings.HasSuffix(got, c.want) {
			t.Errorf("nic=%v alg=%v: line %q, want suffix %q", c.nic, c.alg, got, c.want)
		}
	}
}
