package obs

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/prof"
)

// runRank runs body on a one-rank communicator with a region recorder
// that profiles and traces.
func runRank(t *testing.T, body func(r *comm.Rank, reg *Regions, p *prof.Profiler, tr *Tracer)) {
	t.Helper()
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		p, tr := prof.New(), NewTracer()
		body(r, NewRegions(r, p, tr), p, tr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// One name drives the phase, the mpiP site, the profile row and the
// span; ending a region restores the enclosing site and phase.
func TestRegionDerivesEverythingFromName(t *testing.T) {
	runRank(t, func(r *comm.Rank, reg *Regions, p *prof.Profiler, tr *Tracer) {
		outer := reg.Enter("glsum", CatComm)
		r.Clock().Advance(1e-6)
		if r.Site() != "glsum" || r.Clock().Phase() != PhaseReduce {
			t.Fatalf("in glsum: site %q phase %q", r.Site(), r.Clock().Phase())
		}
		inner := reg.Enter("gs_op", CatGS)
		r.Clock().Advance(1e-6)
		if r.Site() != "gs_op" || r.Clock().Phase() != PhaseGS {
			t.Fatalf("in gs_op: site %q phase %q", r.Site(), r.Clock().Phase())
		}
		inner.End()
		if r.Site() != "glsum" || r.Clock().Phase() != PhaseReduce {
			t.Fatalf("after gs_op: site %q phase %q, want the enclosing glsum/reduce", r.Site(), r.Clock().Phase())
		}
		outer.End()
		if r.Site() != "" || r.Clock().Phase() != "" {
			t.Fatalf("after glsum: site %q phase %q, want both cleared", r.Site(), r.Clock().Phase())
		}
		rows := map[string]int64{}
		for _, st := range p.Flat() {
			rows[st.Name] = st.Calls
		}
		if rows["glsum"] != 1 || rows["gs_op"] != 1 {
			t.Fatalf("profile rows = %v", rows)
		}
		spans := tr.Spans()
		if len(spans) != 2 || spans[0].Name != "gs_op" || spans[1].Name != "glsum" {
			t.Fatalf("spans = %+v", spans)
		}
		if spans[1].VTEnd-spans[1].VTStart != 2e-6 {
			t.Fatalf("glsum span covers %v virtual seconds, want 2e-6", spans[1].VTEnd-spans[1].VTStart)
		}
		splits := r.Clock().PhaseSplits()
		if splits[PhaseReduce].Compute == 0 || splits[PhaseGS].Compute == 0 {
			t.Fatalf("phase splits = %+v", splits)
		}
	})
}

// A region entered directly inside an open region of the same name is
// part of it: one profile call, one span.
func TestRegionSameNameNestingMerges(t *testing.T) {
	runRank(t, func(r *comm.Rank, reg *Regions, p *prof.Profiler, tr *Tracer) {
		outer := reg.Enter("gs_op", CatGS)
		reg.Enter("gs_op", CatGS).End()
		if r.Site() != "gs_op" {
			t.Fatalf("merged End changed the site to %q", r.Site())
		}
		outer.End()
		if flat := p.Flat(); len(flat) != 1 || flat[0].Calls != 1 {
			t.Fatalf("flat profile = %+v, want one gs_op call", flat)
		}
		if n := len(tr.Spans()); n != 1 {
			t.Fatalf("%d spans, want 1", n)
		}
	})
}

// Ending a region closes inner regions still open (a panic unwound past
// their End) without panicking, and leaves the rank's state clean.
func TestRegionEndClosesAbandonedInner(t *testing.T) {
	runRank(t, func(r *comm.Rank, reg *Regions, p *prof.Profiler, tr *Tracer) {
		step := reg.Enter("timestep", CatStep)
		reg.Enter("gs_op", CatGS)
		reg.Enter("gs_op", CatGS)
		step.End()
		if r.Site() != "" || r.Clock().Phase() != "" {
			t.Fatalf("after unwinding: site %q phase %q", r.Site(), r.Clock().Phase())
		}
		if n := len(tr.Spans()); n != 2 {
			t.Fatalf("%d spans, want 2 (timestep and gs_op)", n)
		}
		// The stack is empty: a new region starts at the root.
		reg.Enter("glmax", CatComm).End()
		for _, e := range p.Edges() {
			if e.Child == "glmax" && e.Parent != "<root>" {
				t.Fatalf("glmax nested under %q after the unwind", e.Parent)
			}
		}
	})
}

func TestRegionEndTwiceOrOutOfOrderPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want a panic", what)
			}
		}()
		f()
	}
	runRank(t, func(r *comm.Rank, reg *Regions, p *prof.Profiler, tr *Tracer) {
		a := reg.Enter("a", CatKernel)
		a.End()
		mustPanic("ended twice", a.End)

		outer := reg.Enter("outer", CatKernel)
		inner := reg.Enter("inner", CatKernel)
		outer.End() // closes inner too
		mustPanic("ended after its enclosing region", inner.End)

		// A stale handle must not close a newer region at its depth.
		reg.Enter("b", CatKernel)
		mustPanic("stale handle", a.End)
	})
}
