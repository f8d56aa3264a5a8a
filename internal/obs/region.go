package obs

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/prof"
)

// Regions is one rank's region recorder. Entering a region derives
// everything from its name: the clock's accounting phase (PhaseOf), the
// mpiP call site of the rank's MPI calls, the row of the rank's flat
// profile, and a span on the rank's trace track. Ending it restores the
// enclosing phase and site. A region entered directly inside an open
// region of the same name counts as part of that region and records
// nothing of its own, so a library's gs_op inside its caller's gs_op is
// one region. A Regions is owned by the rank's goroutine.
type Regions struct {
	rank  *comm.Rank
	prof  *prof.Profiler
	trace *Tracer
	stack []frame
	seq   uint64
}

type frame struct {
	name                string
	cat                 Category
	seq                 uint64
	merged              bool // inside a same-name region: records nothing
	prevSite, prevPhase string
	wall0, vt0          float64
}

// NewRegions returns the region recorder of rank r. The profile p and
// tracer t may be nil; phases and call sites are always recorded.
func NewRegions(r *comm.Rank, p *prof.Profiler, t *Tracer) *Regions {
	return &Regions{rank: r, prof: p, trace: t}
}

// Rank returns the rank the regions are recorded on.
func (g *Regions) Rank() *comm.Rank { return g.rank }

// Region is an open region. It is a plain value, so entering and ending
// a region allocates nothing once the rank's stack has grown:
//
//	defer reg.Enter("gs_op", obs.CatGS).End()
type Region struct {
	g     *Regions
	depth int
	seq   uint64
}

// Enter opens the named region. End it after any virtual-clock charge
// for the work it covers, so its phase and span include the modeled cost.
func (g *Regions) Enter(name string, cat Category) Region {
	g.seq++
	f := frame{name: name, cat: cat, seq: g.seq}
	if n := len(g.stack); n > 0 && g.stack[n-1].name == name {
		f.merged = true
	} else {
		f.prevSite = g.rank.SwapSite(name)
		f.prevPhase = g.rank.Clock().PushPhase(PhaseOf(name, cat))
		if g.prof != nil {
			g.prof.Start(name)
		}
		if g.trace != nil {
			f.wall0, f.vt0 = g.trace.wall(), g.rank.Clock().Now()
		}
	}
	g.stack = append(g.stack, f)
	return Region{g: g, depth: len(g.stack), seq: g.seq}
}

// End closes the region. Inner regions still open — a panic such as a
// DeadRankError unwound past their End — are closed first, so a deferred
// End never masks the error that is unwinding. Ending a region twice, or
// after an enclosing region closed it, panics.
func (r Region) End() {
	g := r.g
	if r.depth > len(g.stack) || g.stack[r.depth-1].seq != r.seq {
		panic(fmt.Sprintf("obs: region ended twice or out of order (depth %d, %d open)", r.depth, len(g.stack)))
	}
	for len(g.stack) >= r.depth {
		f := &g.stack[len(g.stack)-1]
		if !f.merged {
			if g.trace != nil {
				g.trace.addSpan(Span{Rank: g.rank.WorldID(), Name: f.name, Cat: f.cat,
					WallStart: f.wall0, WallEnd: g.trace.wall(), VTStart: f.vt0, VTEnd: g.rank.Clock().Now()})
			}
			if g.prof != nil {
				g.prof.Stop(f.name)
			}
			g.rank.Clock().PopPhase(f.prevPhase)
			g.rank.SwapSite(f.prevSite)
		}
		g.stack = g.stack[:len(g.stack)-1]
	}
}
