package gs

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/obs"
)

// TopoNeighbor is one sharing neighbor of a Topology: the remote rank and
// the canonical (id-sorted) slot list shared with it.
type TopoNeighbor struct {
	Rank  int
	Slots []int
}

// Topology is the rank-independent result of Setup's discovery phase for
// one rank: everything derived from the id vector and the collective
// generalized all-to-all, detached from the comm.Rank that discovered it.
// It exists so repeated setups over the same mesh partition — the job
// server's setup-artifact cache — can skip the discovery collectives
// entirely: SetupFromTopology rebuilds a fully equivalent handle with no
// communication at all.
type Topology struct {
	// N is the id-vector length Setup saw (Op vector length).
	N int
	// IDs is the active (shared or locally duplicated) id table, ascending.
	IDs []int64
	// Groups lists, per table entry, the local vector indices holding it.
	Groups [][]int
	// SharedMask marks table entries held by at least two ranks.
	SharedMask []bool
	// GlobalShared is the global count of distinct remotely-shared ids
	// (the all_reduce big-vector length).
	GlobalShared int64
	// Neighbors is the per-neighbor slot map, ascending rank order.
	Neighbors []TopoNeighbor
}

// Topology extracts this handle's discovery result as a deep copy, safe
// to reuse after the handle (and its run) are gone.
func (g *GS) Topology() *Topology {
	t := &Topology{
		N:            g.n,
		IDs:          append([]int64(nil), g.ids...),
		Groups:       make([][]int, len(g.groups)),
		SharedMask:   append([]bool(nil), g.sharedMask...),
		GlobalShared: g.globalShared,
		Neighbors:    make([]TopoNeighbor, len(g.neighbors)),
	}
	for i, grp := range g.groups {
		t.Groups[i] = append([]int(nil), grp...)
	}
	for i, nb := range g.neighbors {
		t.Neighbors[i] = TopoNeighbor{Rank: nb.rank, Slots: append([]int(nil), nb.slots...)}
	}
	return t
}

// Validate checks internal consistency against a communicator of p ranks
// and this rank's id; it guards SetupFromTopology against a cache entry
// recorded for a different partition shape.
func (t *Topology) Validate(p, self int) error {
	if t.N < 0 {
		return fmt.Errorf("gs: topology has negative vector length %d", t.N)
	}
	if len(t.Groups) != len(t.IDs) || len(t.SharedMask) != len(t.IDs) {
		return fmt.Errorf("gs: topology table lengths disagree: %d ids, %d groups, %d shared flags",
			len(t.IDs), len(t.Groups), len(t.SharedMask))
	}
	for s, id := range t.IDs {
		if s > 0 && id <= t.IDs[s-1] {
			return fmt.Errorf("gs: topology id table not ascending at slot %d", s)
		}
		if len(t.Groups[s]) == 0 {
			return fmt.Errorf("gs: topology slot %d has no local indices", s)
		}
		for _, idx := range t.Groups[s] {
			if idx < 0 || idx >= t.N {
				return fmt.Errorf("gs: topology slot %d index %d outside vector length %d", s, idx, t.N)
			}
		}
	}
	prev := -1
	for _, nb := range t.Neighbors {
		if nb.Rank < 0 || nb.Rank >= p || nb.Rank == self {
			return fmt.Errorf("gs: topology neighbor rank %d invalid for rank %d of %d", nb.Rank, self, p)
		}
		if nb.Rank <= prev {
			return fmt.Errorf("gs: topology neighbors not in ascending rank order")
		}
		prev = nb.Rank
		if !sort.IntsAreSorted(nb.Slots) {
			return fmt.Errorf("gs: topology neighbor %d slot list not sorted", nb.Rank)
		}
		for _, s := range nb.Slots {
			if s < 0 || s >= len(t.IDs) {
				return fmt.Errorf("gs: topology neighbor %d slot %d outside table", nb.Rank, s)
			}
		}
	}
	return nil
}

// SetupFromTopology builds a gather-scatter handle from a previously
// extracted Topology instead of running the discovery collectives. It is
// NOT collective — no messages are exchanged — which is the point: a
// setup-artifact cache hit makes gs_setup free. The topology must have
// been extracted from a Setup over the same id layout on the same rank
// of an equally sized communicator; Validate enforces the cheap
// invariants, and the exchange itself would detect the rest (slot lists
// are canonical on both sides). The handle records its regions through
// reg, on reg's rank.
func SetupFromTopology(reg *obs.Regions, t *Topology) (*GS, error) {
	r := reg.Rank()
	if err := t.Validate(r.Size(), r.ID()); err != nil {
		return nil, err
	}
	g := &GS{
		rank: r, reg: reg, n: t.N, method: Pairwise,
		sendBufs:       map[int][]float64{},
		fieldsSendBufs: map[int][]float64{},
		ids:            append([]int64(nil), t.IDs...),
		groups:         make([][]int, len(t.Groups)),
		sharedMask:     append([]bool(nil), t.SharedMask...),
		globalShared:   t.GlobalShared,
	}
	for i, grp := range t.Groups {
		g.groups[i] = append([]int(nil), grp...)
	}
	g.partial = make([]float64, len(g.ids))
	g.slotOf = make(map[int64]int, len(g.ids))
	for s, id := range g.ids {
		g.slotOf[id] = s
	}
	for _, nb := range t.Neighbors {
		slots := append([]int(nil), nb.Slots...)
		g.neighbors = append(g.neighbors, neighbor{rank: nb.Rank, slots: slots})
		g.sendBufs[nb.Rank] = make([]float64, len(slots))
	}
	g.reqs = make([]comm.Request, len(g.neighbors))
	return g, nil
}
