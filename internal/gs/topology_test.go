package gs

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

// TestTopologyRoundTrip proves a handle rebuilt from an extracted
// Topology is exchange-equivalent to the freshly discovered one — for
// every method — and that the rebuild itself sends no messages (the
// whole point of the setup-artifact cache).
func TestTopologyRoundTrip(t *testing.T) {
	const p = 4
	ids := func(rank int) []int64 {
		// Ring overlap: each rank holds 6 ids, sharing two with each
		// neighbor, plus a locally duplicated id and an inactive slot.
		base := int64(rank * 4)
		return []int64{base, base + 1, base + 2, base + 3, (base + 4) % (p * 4), (base + 5) % (p * 4), base, -1}
	}
	for _, m := range Methods {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			topos := make([]*Topology, p)
			var want [][]float64
			_, err := comm.RunSimple(p, func(r *comm.Rank) error {
				g := Setup(r, ids(r.ID()))
				topos[r.ID()] = g.Topology()
				vals := testVector(r.ID(), len(ids(r.ID())))
				g.OpWith(vals, comm.OpSum, m)
				if r.ID() == 0 {
					want = append(want, vals)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var got [][]float64
			_, err = comm.RunSimple(p, func(r *comm.Rank) error {
				before := r.Profile().Totals().BytesSent
				g, err := SetupFromTopology(obs.NewRegions(r, nil, nil), topos[r.ID()])
				if err != nil {
					return err
				}
				if sent := r.Profile().Totals().BytesSent - before; sent != 0 {
					t.Errorf("rank %d: SetupFromTopology sent %d bytes, want 0", r.ID(), sent)
				}
				vals := testVector(r.ID(), len(ids(r.ID())))
				g.OpWith(vals, comm.OpSum, m)
				if r.ID() == 0 {
					got = append(got, vals)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
						t.Fatalf("value %d differs: discovered %v, from-topology %v", j, want[i][j], got[i][j])
					}
				}
			}
		})
	}
}

func testVector(rank, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(rank*100+i) + 0.25
	}
	return vals
}

// TestTopologyExtractionMatches checks the extraction is a faithful deep
// copy of the discovered state.
func TestTopologyExtractionMatches(t *testing.T) {
	const p = 2
	topos := make([]*Topology, p)
	shared := make([]int, p)
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		g := Setup(r, []int64{0, 1, 2, int64(r.ID()) + 10})
		topos[r.ID()] = g.Topology()
		shared[r.ID()] = g.SharedSlots()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, topo := range topos {
		if err := topo.Validate(p, rank); err != nil {
			t.Fatalf("rank %d topology invalid: %v", rank, err)
		}
		if len(topo.IDs) != shared[rank] {
			t.Fatalf("rank %d: topology has %d active ids, handle reported %d", rank, len(topo.IDs), shared[rank])
		}
		// ids 0,1,2 are shared by both ranks; 10/11 are private singletons.
		if want := []int64{0, 1, 2}; !reflect.DeepEqual(topo.IDs, want) {
			t.Fatalf("rank %d: active ids %v, want %v", rank, topo.IDs, want)
		}
		if len(topo.Neighbors) != 1 || topo.Neighbors[0].Rank != 1-rank {
			t.Fatalf("rank %d: neighbors %+v, want exactly rank %d", rank, topo.Neighbors, 1-rank)
		}
	}
}

// TestTopologyValidateRejects covers the guard paths a stale or corrupt
// cache entry would hit.
func TestTopologyValidateRejects(t *testing.T) {
	good := &Topology{
		N: 4, IDs: []int64{3, 7}, Groups: [][]int{{0}, {1, 2}}, SharedMask: []bool{true, true},
		Neighbors: []TopoNeighbor{{Rank: 1, Slots: []int{0, 1}}},
	}
	if err := good.Validate(2, 0); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	cases := map[string]func(*Topology){
		"unsorted ids":       func(t *Topology) { t.IDs = []int64{7, 3} },
		"short groups":       func(t *Topology) { t.Groups = t.Groups[:1] },
		"empty group":        func(t *Topology) { t.Groups[0] = nil },
		"index out of range": func(t *Topology) { t.Groups[0] = []int{9} },
		"self neighbor":      func(t *Topology) { t.Neighbors[0].Rank = 0 },
		"rank out of range":  func(t *Topology) { t.Neighbors[0].Rank = 5 },
		"slot out of table":  func(t *Topology) { t.Neighbors[0].Slots = []int{4} },
	}
	for name, mutate := range cases {
		bad := &Topology{
			N: good.N, IDs: append([]int64(nil), good.IDs...),
			Groups:     [][]int{append([]int(nil), good.Groups[0]...), append([]int(nil), good.Groups[1]...)},
			SharedMask: append([]bool(nil), good.SharedMask...),
			Neighbors:  []TopoNeighbor{{Rank: 1, Slots: append([]int(nil), good.Neighbors[0].Slots...)}},
		}
		mutate(bad)
		if err := bad.Validate(2, 0); err == nil {
			t.Errorf("%s: Validate accepted a corrupt topology", name)
		}
	}
}
