// Package gs is the gather-scatter library of the mini-app — the Go
// counterpart of the Nek5000 gs library that both CMT-bone and Nekbone
// inherit (the paper's gs_op_ kernel). A gather-scatter over a vector of
// values, each tagged with a global integer id, combines (sum/min/max/
// prod) every value sharing an id — across all ranks — and writes the
// combined value back to every occurrence.
//
// Setup mirrors Nek's gs_setup: a discovery phase using generalized
// all-to-all communication identifies, for every global id i on process
// p, all processes q that also hold i (Section VI of the paper). The
// exchange itself supports the three algorithms the paper names —
// pairwise exchange, crystal router, and all_reduce onto a big vector —
// plus the startup autotuner that times all three and picks a winner.
package gs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Method selects the exchange algorithm.
type Method int

// Exchange algorithms evaluated at startup (paper Figure 7).
const (
	// Pairwise sends one message per sharing neighbor, directly.
	Pairwise Method = iota
	// CrystalRouter routes all traffic through a hypercube in
	// ceil(log2 P) stages, combining messages per stage.
	CrystalRouter
	// AllReduce scatters partials onto a dense vector over all shared
	// ids and allreduces it — simple, and too expensive at scale, as the
	// paper observes.
	AllReduce
)

// Methods lists the selectable algorithms.
var Methods = []Method{Pairwise, CrystalRouter, AllReduce}

// ParseMethod maps a command-line name to a Method.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "pairwise":
		return Pairwise, nil
	case "crystal":
		return CrystalRouter, nil
	case "allreduce":
		return AllReduce, nil
	}
	return 0, fmt.Errorf("gs: unknown method %q (want pairwise, crystal, or allreduce)", name)
}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Pairwise:
		return "pairwise exchange"
	case CrystalRouter:
		return "crystal router"
	case AllReduce:
		return "all_reduce"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// tag for gs point-to-point traffic; per-(source,tag) FIFO ordering keeps
// back-to-back operations separated.
const gsTag = 0x675f // "gs"

// neighbor is one rank this rank shares ids with, plus the canonical
// (id-sorted) list of shared slots, identical on both sides.
type neighbor struct {
	rank  int
	slots []int // indices into the shared-id table
}

// GS is a configured gather-scatter handle bound to one rank and one id
// layout. It is owned by the rank's goroutine.
type GS struct {
	rank *comm.Rank
	reg  *obs.Regions // the rank's region recorder (gs_setup, gs_op, gs_autotune)
	n    int          // expected vector length

	ids      []int64 // distinct active ids, ascending (the shared-id table)
	groups   [][]int // per table entry: local vector indices holding it
	partial  []float64
	sendBufs map[int][]float64 // reusable per-neighbor assembly buffers

	fieldsPartial  []float64         // reusable k-field partial buffer (OpFields)
	fieldsSendBufs map[int][]float64 // reusable per-neighbor packed buffers (OpFields)

	neighbors []neighbor // ascending rank order

	// Persistent receive requests for the pairwise paths (one per
	// neighbor) and the crystal-router stage exchange, so the steady-state
	// exchange posts no allocations.
	reqs []comm.Request
	creq comm.Request

	// crystal-router id lookup
	slotOf map[int64]int

	// crystal-router reusable routing state: three item buffers rotated
	// between the live set, the keep partition, and the send partition,
	// plus message staging and a persistent sorter for the per-stage merge.
	itemsA, itemsB, itemsC []item
	stageVals              []float64
	stageInts              []int64
	sorter                 itemSorter

	// all_reduce persistent dense-vector scratch, identity-reset in place
	// on every exchange.
	bigVec []float64

	// all_reduce big vector: globally consistent compact index over
	// remotely-shared ids. Built lazily on first use — at scale it is
	// enormous, which is exactly why the paper finds the method "too
	// expensive".
	sharedMask   []bool // per table entry: id held by >= 2 ranks
	globalShared int64  // count of globally distinct remotely-shared ids
	bigIdx       []int  // per table entry: dense position, -1 if unshared
	bigLen       int

	method Method // current default method (set by Tune or SetMethod)

	// pendings counts NewPending calls, assigning each split-phase
	// exchange handle its own deterministic point-to-point tag.
	pendings int
}

// Setup builds a gather-scatter handle for the given id vector: ids[i] is
// the global id of values[i] in later Op calls; negative ids mark entries
// that never participate. Setup is collective over all ranks of r. Its
// regions carry phases and mpiP call sites only; SetupWith records them
// into the caller's profile and trace instead.
func Setup(r *comm.Rank, ids []int64) *GS {
	return SetupWith(obs.NewRegions(r, nil, nil), ids)
}

// SetupWith is Setup on the rank of reg, recording the handle's regions
// (gs_setup here, gs_op per exchange, gs_autotune) through reg.
func SetupWith(reg *obs.Regions, ids []int64) *GS {
	defer reg.Enter("gs_setup", obs.CatComm).End()
	r := reg.Rank()

	g := &GS{
		rank: r, reg: reg, n: len(ids), method: Pairwise,
		sendBufs:       map[int][]float64{},
		fieldsSendBufs: map[int][]float64{},
	}

	// Group local indices by id.
	byID := map[int64][]int{}
	for i, id := range ids {
		if id >= 0 {
			byID[id] = append(byID[id], i)
		}
	}
	distinct := make([]int64, 0, len(byID))
	for id := range byID {
		distinct = append(distinct, id)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })

	// Discovery phase: route each distinct id to a hashed "owner" rank,
	// which observes every rank holding it and replies with the sharer
	// lists. This is the generalized all-to-all of gs_setup.
	p := r.Size()
	owner := func(id int64) int { return int(id % int64(p)) }

	sendCounts := make([]int, p)
	for _, id := range distinct {
		sendCounts[owner(id)]++
	}
	sendIDs := make([]int64, 0, len(distinct))
	// distinct is sorted by id; bucket-stable assembly per destination.
	for dst := 0; dst < p; dst++ {
		for _, id := range distinct {
			if owner(id) == dst {
				sendIDs = append(sendIDs, id)
			}
		}
	}
	recvIDs, recvCounts := r.AlltoallvInts(sendIDs, sendCounts)

	// The owner groups ids by value and notes which ranks hold each.
	holders := map[int64][]int{}
	off := 0
	for src := 0; src < p; src++ {
		for k := 0; k < recvCounts[src]; k++ {
			id := recvIDs[off+k]
			holders[id] = append(holders[id], src)
		}
		off += recvCounts[src]
	}
	// Reply: for every id held by >= 2 ranks, tell each holder the full
	// holder list, encoded [id, m, rank0..rank_{m-1}].
	replyCounts := make([]int, p)
	type sharedEntry struct {
		id    int64
		ranks []int
	}
	var shared []sharedEntry
	for id, rs := range holders {
		if len(rs) >= 2 {
			shared = append(shared, sharedEntry{id, rs})
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i].id < shared[j].id })
	for _, s := range shared {
		entryLen := 2 + len(s.ranks)
		for _, dst := range s.ranks {
			replyCounts[dst] += entryLen
		}
	}
	replyOffs := make([]int, p+1)
	for i, c := range replyCounts {
		replyOffs[i+1] = replyOffs[i] + c
	}
	reply := make([]int64, replyOffs[p])
	cursor := append([]int(nil), replyOffs[:p]...)
	for _, s := range shared {
		for _, dst := range s.ranks {
			c := cursor[dst]
			reply[c] = s.id
			reply[c+1] = int64(len(s.ranks))
			for k, rr := range s.ranks {
				reply[c+2+k] = int64(rr)
			}
			cursor[dst] = c + 2 + len(s.ranks)
		}
	}
	gotReply, _ := r.AlltoallvInts(reply, replyCounts)

	// Parse the sharer lists: for each of my ids, which remote ranks
	// also hold it.
	remote := map[int64][]int{}
	for i := 0; i < len(gotReply); {
		id := gotReply[i]
		m := int(gotReply[i+1])
		for k := 0; k < m; k++ {
			q := int(gotReply[i+2+k])
			if q != r.ID() {
				remote[id] = append(remote[id], q)
			}
		}
		i += 2 + m
	}

	// Active ids: remotely shared, or duplicated locally.
	for _, id := range distinct {
		if len(remote[id]) > 0 || len(byID[id]) > 1 {
			g.ids = append(g.ids, id)
			g.groups = append(g.groups, byID[id])
			g.sharedMask = append(g.sharedMask, len(remote[id]) > 0)
		}
	}
	g.partial = make([]float64, len(g.ids))
	g.slotOf = make(map[int64]int, len(g.ids))
	for s, id := range g.ids {
		g.slotOf[id] = s
	}

	// Exact global count of distinct remotely-shared ids: each owner
	// counts the shared ids it adjudicated; one integer allreduce sums
	// them. This sizes the all_reduce big vector without building it.
	counts := r.AllreduceInts(comm.OpSum, []int64{int64(len(shared))})
	g.globalShared = counts[0]

	// Per-neighbor slot lists, canonical because g.ids is id-sorted on
	// every rank.
	nbSlots := map[int][]int{}
	for s, id := range g.ids {
		for _, q := range remote[id] {
			nbSlots[q] = append(nbSlots[q], s)
		}
	}
	ranks := make([]int, 0, len(nbSlots))
	for q := range nbSlots {
		ranks = append(ranks, q)
	}
	sort.Ints(ranks)
	for _, q := range ranks {
		g.neighbors = append(g.neighbors, neighbor{rank: q, slots: nbSlots[q]})
		g.sendBufs[q] = make([]float64, len(nbSlots[q]))
	}
	g.reqs = make([]comm.Request, len(g.neighbors))
	return g
}

// bigScratch returns the persistent all_reduce dense-vector scratch,
// grown to at least n and sliced to exactly n. Contents are whatever the
// previous exchange left — callers reset with the op identity in place.
func (g *GS) bigScratch(n int) []float64 {
	if cap(g.bigVec) < n {
		g.bigVec = make([]float64, n)
	}
	return g.bigVec[:n]
}

// ensureBigVector lazily builds the globally consistent dense index for
// the all_reduce method: the sorted union of every rank's remotely-shared
// ids. Collective — it runs inside the (collective) all_reduce exchange,
// so every rank reaches it together. Deliberately non-scalable: this IS
// the "big vector" method.
func (g *GS) ensureBigVector() {
	if g.bigIdx != nil {
		return
	}
	r := g.rank
	var mine []int64
	for s, id := range g.ids {
		if g.sharedMask[s] {
			mine = append(mine, id)
		}
	}
	counts := r.AllgatherInts(int64(len(mine)))
	maxCount := int64(0)
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	padded := make([]float64, maxCount)
	for i := range padded {
		padded[i] = -1
	}
	for i, id := range mine {
		padded[i] = float64(id)
	}
	all := r.Allgather(padded)
	seen := map[int64]bool{}
	var union []int64
	for src := 0; src < r.Size(); src++ {
		for k := int64(0); k < counts[src]; k++ {
			id := int64(all[int64(src)*maxCount+k])
			if !seen[id] {
				seen[id] = true
				union = append(union, id)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	pos := make(map[int64]int, len(union))
	for i, id := range union {
		pos[id] = i
	}
	g.bigLen = len(union)
	g.bigIdx = make([]int, len(g.ids))
	for s, id := range g.ids {
		if g.sharedMask[s] {
			g.bigIdx[s] = pos[id]
		} else {
			g.bigIdx[s] = -1
		}
	}
}

// Neighbors returns the ranks this rank exchanges shared values with.
func (g *GS) Neighbors() []int {
	out := make([]int, len(g.neighbors))
	for i, nb := range g.neighbors {
		out[i] = nb.rank
	}
	return out
}

// SharedSlots returns the number of active (shared or locally duplicated)
// ids on this rank.
func (g *GS) SharedSlots() int { return len(g.ids) }

// BigVectorLen returns the length of the dense vector the all_reduce
// method would operate on — a direct measure of why it does not scale.
// It is known exactly without building the vector.
func (g *GS) BigVectorLen() int { return int(g.globalShared) }

// AllReduceMaxLen is the big-vector length above which the tuner deems
// the all_reduce method infeasible and skips timing it, as the paper's
// problem setups do ("all_reduce is too expensive for both mini-apps").
const AllReduceMaxLen = 1 << 20

// FeasibleMethods returns the exchange methods worth timing for this
// handle's pattern: all of them, unless the all_reduce big vector would
// be unreasonably large.
func (g *GS) FeasibleMethods() []Method {
	if g.globalShared > AllReduceMaxLen {
		return []Method{Pairwise, CrystalRouter}
	}
	return Methods
}

// Method returns the currently selected default exchange method.
func (g *GS) Method() Method { return g.method }

// SetMethod overrides the default exchange method.
func (g *GS) SetMethod(m Method) { g.method = m }

// Op performs the gather-scatter with the default method.
func (g *GS) Op(values []float64, op comm.ReduceOp) {
	g.OpWith(values, op, g.method)
}

// OpWith performs the gather-scatter with an explicit method: all values
// sharing a global id — across every rank — are combined with op, and the
// combined value replaces each of them. OpWith is collective: every rank
// must call it with the same op and method.
func (g *GS) OpWith(values []float64, op comm.ReduceOp, m Method) {
	if len(values) != g.n {
		panic(fmt.Sprintf("gs: vector length %d, setup saw %d", len(values), g.n))
	}
	defer g.reg.Enter("gs_op", obs.CatGS).End()

	// Gather: combine local occurrences into one partial per id.
	for s, grp := range g.groups {
		acc := values[grp[0]]
		for _, idx := range grp[1:] {
			acc = combine2(op, acc, values[idx])
		}
		g.partial[s] = acc
	}

	switch m {
	case Pairwise:
		g.exchangePairwise(op)
	case CrystalRouter:
		g.exchangeCrystal(op)
	case AllReduce:
		g.exchangeAllReduce(op)
	default:
		panic(fmt.Sprintf("gs: unknown method %d", int(m)))
	}

	// Scatter: write the combined value back to every occurrence.
	for s, grp := range g.groups {
		v := g.partial[s]
		for _, idx := range grp {
			values[idx] = v
		}
	}
}

func combine2(op comm.ReduceOp, a, b float64) float64 {
	switch op {
	case comm.OpSum:
		return a + b
	case comm.OpProd:
		return a * b
	case comm.OpMin:
		return math.Min(a, b)
	case comm.OpMax:
		return math.Max(a, b)
	}
	panic(fmt.Sprintf("gs: unknown op %v", op))
}

// identity returns op's neutral element, used to pad the big vector.
func identity(op comm.ReduceOp) float64 {
	switch op {
	case comm.OpSum:
		return 0
	case comm.OpProd:
		return 1
	case comm.OpMin:
		return math.Inf(1)
	case comm.OpMax:
		return math.Inf(-1)
	}
	panic(fmt.Sprintf("gs: unknown op %v", op))
}
