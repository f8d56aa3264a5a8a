package netmodel

import "fmt"

// Topology is a link-graph network model: ranks live on nodes, nodes hang
// off a switch fabric (two-level fat-tree or dragonfly), and every
// inter-node message is priced along its minimal route — the sum of the
// per-link latencies plus the payload over the bottleneck link's
// effective bandwidth. Intra-node messages never touch the fabric; they
// are priced by the (much smaller) IntraAlpha/IntraBeta pair, which is
// what makes node-aware communication structure worth modeling at all.
//
// Congestion is deterministic and sender-computable, preserving the
// repo's bit-reproducibility invariant (no shared mutable link state on
// the hot path). Two mechanisms compose:
//
//   - A static background load factor (SetBackgroundLoad): every link's
//     effective per-byte time is scaled by
//     1 + load*max(0, Sharers/Width - 1), where Sharers is the number of
//     ranks whose minimal routes can use the link and Width its parallel
//     capacity. Monotone in load; zero load prices the unloaded fabric.
//   - A per-message concurrency factor: the sender declares how many
//     co-located ranks on its node are sending in the same communication
//     round (collectives know their own round structure; point-to-point
//     traffic defaults to 1). The declared node-level flow count is
//     scaled up the tree under a homogeneity assumption — every node
//     under a leaf (router, group) contributes the same concurrent flow
//     count — and each link's per-byte time is multiplied by
//     max(1, flows/Width). This is the fluid bandwidth-sharing model
//     that makes a flat allreduce (every rank injecting every round) pay
//     for NIC and uplink contention that a node-leader collective avoids.
//
// A third, pattern-exact view — ReplayCongestion — replays a traced flow
// set through per-link queues offline; it is pure and deterministic and
// feeds the congested-link attribution on benchdiff blame lines.
type Topology struct {
	name         string
	ranks        int
	ranksPerNode int

	// Intra-node (shared-memory) pricing.
	IntraAlpha float64
	IntraBeta  float64

	links []Link
	load  float64

	kind topoKind

	// Fat-tree shape.
	nodesPerLeaf int
	leaves       int

	// Dragonfly shape.
	nodesPerRouter  int
	routersPerGroup int
	groups          int
}

type topoKind int

const (
	kindFatTree topoKind = iota
	kindDragonfly
)

// LinkClass identifies a link's level in the fabric.
type LinkClass int

const (
	// ClassNIC is a node's injection/ejection link to its first switch.
	ClassNIC LinkClass = iota
	// ClassLeafSpine is a fat-tree leaf's aggregated uplink bundle.
	ClassLeafSpine
	// ClassLocal is a dragonfly intra-group router-to-router link.
	ClassLocal
	// ClassGlobal is a dragonfly group-to-group link.
	ClassGlobal
)

// String implements fmt.Stringer.
func (c LinkClass) String() string {
	switch c {
	case ClassNIC:
		return "nic"
	case ClassLeafSpine:
		return "leaf-spine"
	case ClassLocal:
		return "local"
	case ClassGlobal:
		return "global"
	}
	return fmt.Sprintf("LinkClass(%d)", int(c))
}

// Link is one directed link (or aggregated bundle) of the fabric.
type Link struct {
	Name  string
	Class LinkClass
	// Alpha is the per-traversal latency share of this link; a route's
	// latency is the sum of its links' alphas.
	Alpha float64
	// Beta is the per-byte time of one lane of the link (1/bandwidth).
	Beta float64
	// Width is the number of parallel lanes: W concurrent flows cross at
	// full speed, beyond that they share.
	Width float64
	// Sharers is the number of ranks whose minimal routes can use the
	// link — the population the background-load factor draws from.
	Sharers int
}

// Name identifies the topology in reports.
func (t *Topology) Name() string { return t.name }

// Ranks returns the number of modeled ranks the topology hosts.
func (t *Topology) Ranks() int { return t.ranks }

// RanksPerNode returns the ranks hosted on each node.
func (t *Topology) RanksPerNode() int { return t.ranksPerNode }

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.ranks / t.ranksPerNode }

// NodeOf returns the node hosting a rank (block mapping: contiguous
// ranks share a node, the layout mpirun-style launchers produce).
func (t *Topology) NodeOf(rank int) int { return rank / t.ranksPerNode }

// NodeMap returns the rank→node map, the input a comm.Hierarchy is
// built from.
func (t *Topology) NodeMap() []int {
	m := make([]int, t.ranks)
	for r := range m {
		m[r] = r / t.ranksPerNode
	}
	return m
}

// Links returns a copy of the link table.
func (t *Topology) Links() []Link { return append([]Link(nil), t.links...) }

// SetBackgroundLoad sets the uniform offered-load fraction in [0,1] the
// static congestion factor prices. Not safe to call while a run is in
// flight: set it before comm.Run.
func (t *Topology) SetBackgroundLoad(u float64) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	t.load = u
}

// BackgroundLoad returns the configured offered-load fraction.
func (t *Topology) BackgroundLoad() float64 { return t.load }

// congest returns the effective per-byte multiplier of link l for a
// sender that declared nodeFlows concurrent co-located flows.
func (t *Topology) congest(l *Link, nodeFlows int) float64 {
	f := 1.0
	if t.load > 0 {
		if over := float64(l.Sharers)/l.Width - 1; over > 0 {
			f += t.load * over
		}
	}
	if nodeFlows < 1 {
		nodeFlows = 1
	}
	// Homogeneity assumption: every node below the link's level injects
	// the same number of concurrent flows.
	flows := float64(nodeFlows)
	switch l.Class {
	case ClassLeafSpine:
		flows *= float64(t.nodesPerLeaf)
	case ClassLocal:
		flows *= float64(t.nodesPerRouter)
	case ClassGlobal:
		flows *= float64(t.nodesPerRouter * t.routersPerGroup)
	}
	if share := flows / l.Width; share > 1 {
		f *= share
	}
	return f
}

// Route appends the link indices of the minimal route from src to dst
// (world ranks) to buf and returns it. An intra-node pair has an empty
// route. Routes are computed arithmetically; no graph search.
func (t *Topology) Route(src, dst int, buf []int) []int {
	ns, nd := t.NodeOf(src), t.NodeOf(dst)
	if ns == nd {
		return buf
	}
	switch t.kind {
	case kindFatTree:
		buf = append(buf, t.ftNICUp(ns))
		ls, ld := ns/t.nodesPerLeaf, nd/t.nodesPerLeaf
		if ls != ld {
			buf = append(buf, t.ftLeafUp(ls), t.ftLeafDown(ld))
		}
		return append(buf, t.ftNICDown(nd))
	default: // kindDragonfly
		buf = append(buf, t.dfNICUp(ns))
		rs, rd := ns/t.nodesPerRouter, nd/t.nodesPerRouter
		gs, gd := rs/t.routersPerGroup, rd/t.routersPerGroup
		lrs, lrd := rs%t.routersPerGroup, rd%t.routersPerGroup
		if gs == gd {
			if lrs != lrd {
				buf = append(buf, t.dfLocal(gs, lrs, lrd))
			}
		} else {
			// Minimal route: hop to the gateway router of the source
			// group for the destination group, cross the global link,
			// then hop from the receiving gateway to the target router.
			gwS := gd % t.routersPerGroup
			gwD := gs % t.routersPerGroup
			if lrs != gwS {
				buf = append(buf, t.dfLocal(gs, lrs, gwS))
			}
			buf = append(buf, t.dfGlobal(gs, gd))
			if gwD != lrd {
				buf = append(buf, t.dfLocal(gd, gwD, lrd))
			}
		}
		return append(buf, t.dfNICDown(nd))
	}
}

// MinRouteLinks returns the number of fabric links on the minimal route
// (0 for an intra-node pair).
func (t *Topology) MinRouteLinks(src, dst int) int {
	var buf [8]int
	return len(t.Route(src, dst, buf[:0]))
}

// PairCost prices a message of size bytes from src to dst (world ranks):
// the modeled one-way transfer cost, the sender-side injection overhead
// (inject is the model's InjectionFactor), and the route's link count.
// nodeFlows is the sender-declared count of co-located concurrent flows
// (see the type comment); values below 1 mean a lone flow.
func (t *Topology) PairCost(src, dst, size int, inject float64, nodeFlows int) (cost, overhead float64, links int) {
	if t.NodeOf(src) == t.NodeOf(dst) {
		cost = t.IntraAlpha + t.IntraBeta*float64(size)
		overhead = t.IntraAlpha + inject*t.IntraBeta*float64(size)
		return cost, overhead, 0
	}
	var buf [8]int
	route := t.Route(src, dst, buf[:0])
	alpha, betaEff := 0.0, 0.0
	for _, id := range route {
		l := &t.links[id]
		alpha += l.Alpha
		if b := l.Beta * t.congest(l, nodeFlows); b > betaEff {
			betaEff = b
		}
	}
	cost = alpha + betaEff*float64(size)
	overhead = alpha + inject*betaEff*float64(size)
	return cost, overhead, len(route)
}

// ---- fat-tree ----

// FatTreeConfig parameterizes a two-level (leaf/spine) fat-tree.
type FatTreeConfig struct {
	RanksPerNode int
	NodesPerLeaf int
	Leaves       int
	// Oversub is the leaf downlink:uplink ratio; 1 = full bisection. A
	// leaf's uplink bundle has Width = NodesPerLeaf/Oversub lanes.
	Oversub float64
	// Intra-node pricing.
	IntraAlpha, IntraBeta float64
	// Per-NIC-link latency and per-byte time (one NIC traversal each at
	// the source and destination node).
	LinkAlpha, LinkBeta float64
	// Per-leaf-spine-traversal latency and per-byte time (two
	// traversals on a cross-leaf route). Zero SpineBeta means LinkBeta.
	SpineAlpha, SpineBeta float64
}

// FatTree builds a two-level fat-tree topology.
func FatTree(cfg FatTreeConfig) (*Topology, error) {
	if cfg.RanksPerNode < 1 || cfg.NodesPerLeaf < 1 || cfg.Leaves < 1 {
		return nil, fmt.Errorf("netmodel: fat-tree needs positive shape, got rpn=%d npl=%d leaves=%d",
			cfg.RanksPerNode, cfg.NodesPerLeaf, cfg.Leaves)
	}
	if cfg.Oversub <= 0 {
		cfg.Oversub = 1
	}
	if cfg.SpineBeta == 0 {
		cfg.SpineBeta = cfg.LinkBeta
	}
	nodes := cfg.NodesPerLeaf * cfg.Leaves
	t := &Topology{
		name:         fmt.Sprintf("fat-tree/%dx%dx%d", cfg.Leaves, cfg.NodesPerLeaf, cfg.RanksPerNode),
		ranks:        nodes * cfg.RanksPerNode,
		ranksPerNode: cfg.RanksPerNode,
		IntraAlpha:   cfg.IntraAlpha,
		IntraBeta:    cfg.IntraBeta,
		kind:         kindFatTree,
		nodesPerLeaf: cfg.NodesPerLeaf,
		leaves:       cfg.Leaves,
	}
	uplinks := float64(cfg.NodesPerLeaf) / cfg.Oversub
	if uplinks < 1 {
		uplinks = 1
	}
	t.links = make([]Link, 2*nodes+2*cfg.Leaves)
	for n := 0; n < nodes; n++ {
		t.links[2*n] = Link{
			Name: fmt.Sprintf("nic-up:n%d", n), Class: ClassNIC,
			Alpha: cfg.LinkAlpha, Beta: cfg.LinkBeta, Width: 1, Sharers: cfg.RanksPerNode,
		}
		t.links[2*n+1] = Link{
			Name: fmt.Sprintf("nic-down:n%d", n), Class: ClassNIC,
			Alpha: cfg.LinkAlpha, Beta: cfg.LinkBeta, Width: 1, Sharers: cfg.RanksPerNode,
		}
	}
	base := 2 * nodes
	for l := 0; l < cfg.Leaves; l++ {
		t.links[base+2*l] = Link{
			Name: fmt.Sprintf("leaf-up:l%d", l), Class: ClassLeafSpine,
			Alpha: cfg.SpineAlpha, Beta: cfg.SpineBeta, Width: uplinks,
			Sharers: cfg.NodesPerLeaf * cfg.RanksPerNode,
		}
		t.links[base+2*l+1] = Link{
			Name: fmt.Sprintf("leaf-down:l%d", l), Class: ClassLeafSpine,
			Alpha: cfg.SpineAlpha, Beta: cfg.SpineBeta, Width: uplinks,
			Sharers: cfg.NodesPerLeaf * cfg.RanksPerNode,
		}
	}
	return t, nil
}

func (t *Topology) ftNICUp(node int) int   { return 2 * node }
func (t *Topology) ftNICDown(node int) int { return 2*node + 1 }
func (t *Topology) ftLeafUp(leaf int) int {
	return 2*t.nodesPerLeaf*t.leaves + 2*leaf
}
func (t *Topology) ftLeafDown(leaf int) int {
	return 2*t.nodesPerLeaf*t.leaves + 2*leaf + 1
}

// ---- dragonfly ----

// DragonflyConfig parameterizes a dragonfly: nodes attach to routers,
// routers form an all-to-all group, groups connect pairwise by global
// links.
type DragonflyConfig struct {
	RanksPerNode    int
	NodesPerRouter  int
	RoutersPerGroup int
	Groups          int
	// Intra-node pricing.
	IntraAlpha, IntraBeta float64
	// NIC link parameters.
	LinkAlpha, LinkBeta float64
	// Intra-group router-to-router link parameters.
	LocalAlpha, LocalBeta float64
	// Group-to-group (long optical) link parameters. GlobalWidth is the
	// number of parallel global cables per group pair (default 1).
	GlobalAlpha, GlobalBeta float64
	GlobalWidth             float64
}

// Dragonfly builds a dragonfly topology with minimal routing.
func Dragonfly(cfg DragonflyConfig) (*Topology, error) {
	if cfg.RanksPerNode < 1 || cfg.NodesPerRouter < 1 || cfg.RoutersPerGroup < 1 || cfg.Groups < 1 {
		return nil, fmt.Errorf("netmodel: dragonfly needs positive shape, got rpn=%d p=%d a=%d g=%d",
			cfg.RanksPerNode, cfg.NodesPerRouter, cfg.RoutersPerGroup, cfg.Groups)
	}
	if cfg.GlobalWidth <= 0 {
		cfg.GlobalWidth = 1
	}
	nodes := cfg.NodesPerRouter * cfg.RoutersPerGroup * cfg.Groups
	t := &Topology{
		name: fmt.Sprintf("dragonfly/g%da%dp%dx%d",
			cfg.Groups, cfg.RoutersPerGroup, cfg.NodesPerRouter, cfg.RanksPerNode),
		ranks:           nodes * cfg.RanksPerNode,
		ranksPerNode:    cfg.RanksPerNode,
		IntraAlpha:      cfg.IntraAlpha,
		IntraBeta:       cfg.IntraBeta,
		kind:            kindDragonfly,
		nodesPerRouter:  cfg.NodesPerRouter,
		routersPerGroup: cfg.RoutersPerGroup,
		groups:          cfg.Groups,
	}
	a, g := cfg.RoutersPerGroup, cfg.Groups
	nLocal := g * a * a
	t.links = make([]Link, 2*nodes+nLocal+g*g)
	for n := 0; n < nodes; n++ {
		t.links[2*n] = Link{
			Name: fmt.Sprintf("nic-up:n%d", n), Class: ClassNIC,
			Alpha: cfg.LinkAlpha, Beta: cfg.LinkBeta, Width: 1, Sharers: cfg.RanksPerNode,
		}
		t.links[2*n+1] = Link{
			Name: fmt.Sprintf("nic-down:n%d", n), Class: ClassNIC,
			Alpha: cfg.LinkAlpha, Beta: cfg.LinkBeta, Width: 1, Sharers: cfg.RanksPerNode,
		}
	}
	localBase := 2 * nodes
	perRouter := cfg.NodesPerRouter * cfg.RanksPerNode
	for gi := 0; gi < g; gi++ {
		for rs := 0; rs < a; rs++ {
			for rd := 0; rd < a; rd++ {
				t.links[localBase+(gi*a+rs)*a+rd] = Link{
					Name: fmt.Sprintf("local:g%d:r%d-r%d", gi, rs, rd), Class: ClassLocal,
					Alpha: cfg.LocalAlpha, Beta: cfg.LocalBeta, Width: 1, Sharers: perRouter,
				}
			}
		}
	}
	globalBase := localBase + nLocal
	perGroup := perRouter * a
	for gs := 0; gs < g; gs++ {
		for gd := 0; gd < g; gd++ {
			t.links[globalBase+gs*g+gd] = Link{
				Name: fmt.Sprintf("global:g%d-g%d", gs, gd), Class: ClassGlobal,
				Alpha: cfg.GlobalAlpha, Beta: cfg.GlobalBeta, Width: cfg.GlobalWidth, Sharers: perGroup,
			}
		}
	}
	return t, nil
}

func (t *Topology) dfNICUp(node int) int   { return 2 * node }
func (t *Topology) dfNICDown(node int) int { return 2*node + 1 }
func (t *Topology) dfLocal(group, rs, rd int) int {
	nodes := t.nodesPerRouter * t.routersPerGroup * t.groups
	return 2*nodes + (group*t.routersPerGroup+rs)*t.routersPerGroup + rd
}
func (t *Topology) dfGlobal(gs, gd int) int {
	nodes := t.nodesPerRouter * t.routersPerGroup * t.groups
	return 2*nodes + t.groups*t.routersPerGroup*t.routersPerGroup + gs*t.groups + gd
}

// ---- preset cluster builders ----

// FatTreeCluster builds a QDR-class fat-tree hosting ranks modeled ranks:
// 16 ranks per node, 16 nodes per leaf, 2:1 oversubscribed uplinks.
// ranks must be a multiple of 16; clusters smaller than one full leaf
// get a single leaf. This is the configuration the scalebench hier study
// and its committed baseline use.
func FatTreeCluster(ranks int) (*Topology, error) {
	const rpn = 16
	if ranks < rpn || ranks%rpn != 0 {
		return nil, fmt.Errorf("netmodel: fat-tree cluster needs a multiple of %d ranks, got %d", rpn, ranks)
	}
	nodes := ranks / rpn
	npl := 16
	if nodes < npl {
		npl = nodes
	}
	if nodes%npl != 0 {
		return nil, fmt.Errorf("netmodel: fat-tree cluster: %d nodes do not tile %d-node leaves", nodes, npl)
	}
	return FatTree(FatTreeConfig{
		RanksPerNode: rpn,
		NodesPerLeaf: npl,
		Leaves:       nodes / npl,
		Oversub:      2,
		IntraAlpha:   2.5e-7, IntraBeta: 8e-11,
		LinkAlpha: 6.5e-7, LinkBeta: 3.1e-10,
		SpineAlpha: 5e-7,
	})
}

// DragonflyCluster builds a QDR-class dragonfly hosting ranks modeled
// ranks: 16 ranks per node, 4 nodes per router, groups of 8 routers
// (shrunk proportionally below 2048 ranks so at least 2 groups exist).
func DragonflyCluster(ranks int) (*Topology, error) {
	const rpn = 16
	if ranks < 2*rpn || ranks%rpn != 0 {
		return nil, fmt.Errorf("netmodel: dragonfly cluster needs a multiple of %d ranks (>= %d), got %d", rpn, 2*rpn, ranks)
	}
	nodes := ranks / rpn
	p := 4
	if nodes < 2*p {
		p = nodes / 2
	}
	g := nodes / (p * 8) // aim for 8-router groups
	if g < 2 {
		g = 2
	}
	if nodes%(p*g) != 0 {
		return nil, fmt.Errorf("netmodel: dragonfly cluster: %d nodes do not tile p=%d groups=%d", nodes, p, g)
	}
	return Dragonfly(DragonflyConfig{
		RanksPerNode:    rpn,
		NodesPerRouter:  p,
		RoutersPerGroup: nodes / (p * g),
		Groups:          g,
		IntraAlpha:      2.5e-7, IntraBeta: 8e-11,
		LinkAlpha: 6.5e-7, LinkBeta: 3.1e-10,
		LocalAlpha: 5e-7, LocalBeta: 3.1e-10,
		GlobalAlpha: 2e-6, GlobalBeta: 3.1e-10, GlobalWidth: 2,
	})
}
