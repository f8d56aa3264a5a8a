package gs

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/obs"
)

// OpFields performs the gather-scatter over k field vectors at once,
// packing all fields' partials into a single message per neighbor — the
// Nek gs library's gs_op_fields. For a solver exchanging five conserved
// variables this trades 5 latency-bound messages per neighbor for one
// bandwidth-bound message, the latency/bandwidth trade the ablation
// benches quantify. Semantics match calling Op on each field.
//
// The packed path is implemented for Pairwise and AllReduce; the crystal
// router routes per-field (its per-stage merging already aggregates
// traffic), which keeps results identical across methods.
func (g *GS) OpFields(fields [][]float64, op comm.ReduceOp, m Method) {
	if len(fields) == 0 {
		return
	}
	for fi, f := range fields {
		if len(f) != g.n {
			panic(fmt.Sprintf("gs: field %d length %d, setup saw %d", fi, len(f), g.n))
		}
	}
	defer g.reg.Enter("gs_op", obs.CatGS).End()

	k := len(fields)
	ns := len(g.ids)
	if cap(g.fieldsPartial) < k*ns {
		g.fieldsPartial = make([]float64, k*ns)
	}
	partial := g.fieldsPartial[:k*ns]

	// Gather: local combine per field, packed slot-major within field
	// blocks: partial[fi*ns + s].
	for fi, f := range fields {
		base := fi * ns
		for s, grp := range g.groups {
			acc := f[grp[0]]
			for _, idx := range grp[1:] {
				acc = combine2(op, acc, f[idx])
			}
			partial[base+s] = acc
		}
	}

	switch m {
	case Pairwise:
		g.exchangePairwiseFields(op, partial, k)
	case AllReduce:
		g.exchangeAllReduceFields(op, partial, k)
	case CrystalRouter:
		// Per-field routing: copy each field block through the scalar
		// partial buffer and route it.
		for fi := 0; fi < k; fi++ {
			copy(g.partial, partial[fi*ns:(fi+1)*ns])
			g.exchangeCrystal(op)
			copy(partial[fi*ns:(fi+1)*ns], g.partial)
		}
	default:
		panic(fmt.Sprintf("gs: unknown method %d", int(m)))
	}

	// Scatter back.
	for fi, f := range fields {
		base := fi * ns
		for s, grp := range g.groups {
			v := partial[base+s]
			for _, idx := range grp {
				f[idx] = v
			}
		}
	}
}

// fieldsSendBuf returns the persistent packed send buffer for neighbor
// q, grown to at least n and sliced to exactly n.
func (g *GS) fieldsSendBuf(q, n int) []float64 {
	buf := g.fieldsSendBufs[q]
	if cap(buf) < n {
		buf = make([]float64, n)
		g.fieldsSendBufs[q] = buf
	}
	return buf[:n]
}

// exchangePairwiseFields is exchangePairwise with k-field packed
// messages: for each neighbor one message carrying, for every shared
// slot, the k field partials contiguously (slot-major).
func (g *GS) exchangePairwiseFields(op comm.ReduceOp, partial []float64, k int) {
	r := g.rank
	ns := len(g.ids)
	for _, nb := range g.neighbors {
		buf := g.fieldsSendBuf(nb.rank, k*len(nb.slots))
		for i, s := range nb.slots {
			for fi := 0; fi < k; fi++ {
				buf[i*k+fi] = partial[fi*ns+s]
			}
		}
		r.IsendMsg(nb.rank, gsTag+2, buf, nil)
	}
	for i, nb := range g.neighbors {
		r.IrecvInto(&g.reqs[i], nb.rank, gsTag+2)
	}
	for i, nb := range g.neighbors {
		data, _ := g.reqs[i].Wait()
		for j, s := range nb.slots {
			for fi := 0; fi < k; fi++ {
				partial[fi*ns+s] = combine2(op, partial[fi*ns+s], data[j*k+fi])
			}
		}
		g.reqs[i].Free()
	}
}

// exchangeAllReduceFields is the big-vector method over k fields stacked
// into one k-times-longer dense vector (persistent handle scratch,
// identity-reset in place).
func (g *GS) exchangeAllReduceFields(op comm.ReduceOp, partial []float64, k int) {
	g.ensureBigVector()
	ns := len(g.ids)
	big := g.bigScratch(k * g.bigLen)
	id := identity(op)
	for i := range big {
		big[i] = id
	}
	for s, pos := range g.bigIdx {
		if pos < 0 {
			continue
		}
		for fi := 0; fi < k; fi++ {
			big[fi*g.bigLen+pos] = partial[fi*ns+s]
		}
	}
	g.rank.Allreduce(op, big)
	for s, pos := range g.bigIdx {
		if pos < 0 {
			continue
		}
		for fi := 0; fi < k; fi++ {
			partial[fi*ns+s] = big[fi*g.bigLen+pos]
		}
	}
}
