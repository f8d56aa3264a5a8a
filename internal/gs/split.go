// Split-phase gather-scatter: the Begin/Finish pair that lets a caller
// overlap the neighbor exchange with independent local compute, mirroring
// gslib's gs_op begin/finish entry points (igs_op in Nek5000). Begin
// gathers only the remotely-shared slots and posts the pairwise sends and
// receives; the caller then runs interior work; Finish combines the
// local-only slots, completes the receives, and scatters everything back.
//
// Bit-identity with the blocking OpFields is by construction: per slot the
// local gather order (grp[0], then grp[1:]), the neighbor combine order
// (ascending rank), and the scatter are the same code in the same order —
// only the interleaving with unrelated caller compute changes. Remotely
// shared slots never mix with local-only slots, so gathering the two
// classes on opposite sides of the caller's interior phase is a pure
// reordering of independent work.
package gs

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Pending is one in-flight split-phase exchange. A Pending is created
// once per concurrent exchange site (NewPending) and reused every step;
// its buffers and requests are persistent, so the steady state allocates
// nothing. It is owned by the rank's goroutine, like the GS handle.
//
// Only the pairwise method runs split-phase; under the crystal router or
// all_reduce (whose collectives cannot be posted halfway) Begin records
// the arguments and Finish falls back to the blocking OpFields, so
// callers never need to special-case the tuned method.
type Pending struct {
	g      *GS
	tag    int // distinct per Pending, so concurrent exchanges never mix
	op     comm.ReduceOp
	fields [][]float64
	k      int

	partial  []float64         // k*ns packed partials, OpFields layout
	sendBufs map[int][]float64 // persistent per-neighbor packed buffers
	reqs     []comm.Request

	active   bool
	fallback bool
	t0       float64 // virtual time Begin posted the exchange
}

// NewPending allocates a reusable split-phase exchange handle. Tags are
// assigned from the handle's creation order, so ranks that create their
// Pendings in the same (deterministic) order agree on tags without
// communicating.
func (g *GS) NewPending() *Pending {
	p := &Pending{
		g:        g,
		tag:      gsTag + 3 + g.pendings,
		sendBufs: map[int][]float64{},
		reqs:     make([]comm.Request, len(g.neighbors)),
	}
	g.pendings++
	return p
}

// Begin starts a gather-scatter over k field vectors: it gathers the
// remotely-shared slots, posts one packed send per neighbor, and posts
// the matching receives. The caller may then mutate any vector entries
// that do not belong to remotely-shared groups (interior work) before
// calling Finish. Begin/Finish pairs on the same Pending must not nest.
func (p *Pending) Begin(fields [][]float64, op comm.ReduceOp) {
	if p.active {
		panic("gs: Begin on an already-active Pending")
	}
	g := p.g
	for fi, f := range fields {
		if len(f) != g.n {
			panic(fmt.Sprintf("gs: field %d length %d, setup saw %d", fi, len(f), g.n))
		}
	}
	p.active = true
	p.op = op
	p.fields = append(p.fields[:0], fields...)
	p.k = len(fields)
	if g.method != Pairwise || p.k == 0 {
		p.fallback = true
		return
	}
	p.fallback = false

	r := g.rank
	defer g.reg.Enter("gs_op", obs.CatGS).End()

	p.t0 = r.Clock().Now()
	k, ns := p.k, len(g.ids)
	if cap(p.partial) < k*ns {
		p.partial = make([]float64, k*ns)
	}
	partial := p.partial[:k*ns]

	// Gather only the remotely-shared slots — every occurrence of a
	// remotely-shared id lives on a boundary element, which the caller
	// has finished before Begin. Local-only slots wait for Finish.
	for fi, f := range fields {
		base := fi * ns
		for s, grp := range g.groups {
			if !g.sharedMask[s] {
				continue
			}
			acc := f[grp[0]]
			for _, idx := range grp[1:] {
				acc = combine2(op, acc, f[idx])
			}
			partial[base+s] = acc
		}
	}

	for _, nb := range g.neighbors {
		buf := p.sendBuf(nb.rank, k*len(nb.slots))
		for i, s := range nb.slots {
			for fi := 0; fi < k; fi++ {
				buf[i*k+fi] = partial[fi*ns+s]
			}
		}
		r.IsendMsg(nb.rank, p.tag, buf, nil)
	}
	for i, nb := range g.neighbors {
		r.IrecvInto(&p.reqs[i], nb.rank, p.tag)
	}
}

// Finish completes the exchange begun by Begin: it gathers the local-only
// slots, waits for every neighbor's message (combining in ascending rank
// order, as the blocking path does), scatters all slots back into the
// field vectors, and accounts the communication time hidden behind the
// compute the caller ran between Begin and Finish.
func (p *Pending) Finish() {
	if !p.active {
		panic("gs: Finish without Begin")
	}
	p.active = false
	g := p.g
	if p.fallback {
		g.OpFields(p.fields, p.op, g.method)
		return
	}

	r := g.rank
	defer g.reg.Enter("gs_op", obs.CatGS).End()

	k, ns := p.k, len(g.ids)
	partial := p.partial[:k*ns]
	op := p.op

	// Gather the local-only slots now that the caller's interior phase
	// has produced every vector entry.
	for fi, f := range p.fields {
		base := fi * ns
		for s, grp := range g.groups {
			if g.sharedMask[s] {
				continue
			}
			acc := f[grp[0]]
			for _, idx := range grp[1:] {
				acc = combine2(op, acc, f[idx])
			}
			partial[base+s] = acc
		}
	}

	// The compute between Begin and Finish ends here; anything the wire
	// delivered before this instant was hidden behind it.
	computeEnd := r.Clock().Now()
	lastArrival := p.t0
	for i, nb := range g.neighbors {
		data, _ := p.reqs[i].Wait()
		for j, s := range nb.slots {
			for fi := 0; fi < k; fi++ {
				partial[fi*ns+s] = combine2(op, partial[fi*ns+s], data[j*k+fi])
			}
		}
		if a := p.reqs[i].Arrival(); a > lastArrival {
			lastArrival = a
		}
		p.reqs[i].Free()
	}
	if len(g.neighbors) > 0 {
		r.Clock().AccountOverlap(p.t0, computeEnd, lastArrival)
	}

	for fi, f := range p.fields {
		base := fi * ns
		for s, grp := range g.groups {
			v := partial[base+s]
			for _, idx := range grp {
				f[idx] = v
			}
		}
	}
}

// sendBuf returns the persistent packed send buffer for neighbor q, grown
// to at least n and sliced to exactly n.
func (p *Pending) sendBuf(q, n int) []float64 {
	buf := p.sendBufs[q]
	if cap(buf) < n {
		buf = make([]float64, n)
		p.sendBufs[q] = buf
	}
	return buf[:n]
}

// RemoteShared reports, per vector index of the setup id layout, whether
// that entry's id is held by another rank. Solvers use it to classify
// elements into boundary (any remotely-shared face point) and interior
// sets for compute/communication overlap.
func (g *GS) RemoteShared() []bool {
	out := make([]bool, g.n)
	for s, grp := range g.groups {
		if !g.sharedMask[s] {
			continue
		}
		for _, idx := range grp {
			out[idx] = true
		}
	}
	return out
}
