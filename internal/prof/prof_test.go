package prof

import (
	"strings"
	"testing"
	"time"
)

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestFlatProfileBasics(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		p.Start("kernel")
		spin(2 * time.Millisecond)
		p.Stop("kernel")
	}
	p.Finish()
	flat := p.Flat()
	if len(flat) != 1 {
		t.Fatalf("regions = %d", len(flat))
	}
	r := flat[0]
	if r.Name != "kernel" || r.Calls != 3 {
		t.Fatalf("region = %+v", r)
	}
	if r.Self < 0.005 || r.Total < r.Self {
		t.Fatalf("timings inconsistent: %+v", r)
	}
	if p.Elapsed() < r.Total {
		t.Fatalf("elapsed %v < region total %v", p.Elapsed(), r.Total)
	}
}

func TestNestedSelfVsTotal(t *testing.T) {
	p := New()
	p.Start("outer")
	spin(time.Millisecond)
	p.Start("inner")
	spin(4 * time.Millisecond)
	p.Stop("inner")
	p.Stop("outer")
	p.Finish()

	byName := map[string]RegionStat{}
	for _, r := range p.Flat() {
		byName[r.Name] = r
	}
	outer, inner := byName["outer"], byName["inner"]
	if outer.Total < inner.Total {
		t.Fatalf("outer total %v < inner total %v", outer.Total, inner.Total)
	}
	// Outer self excludes inner: roughly 1ms vs 4ms.
	if outer.Self >= inner.Self {
		t.Fatalf("outer self %v should be well below inner self %v", outer.Self, inner.Self)
	}
	if diff := outer.Total - outer.Self - inner.Total; diff > 1e-4 && diff < -1e-4 {
		t.Fatalf("self/total bookkeeping off by %v", diff)
	}
}

func TestCallGraphEdges(t *testing.T) {
	p := New()
	p.Start("step")
	p.Start("flux")
	p.Stop("flux")
	p.Start("flux")
	p.Stop("flux")
	p.Start("exchange")
	p.Stop("exchange")
	p.Stop("step")
	p.Finish()

	edges := p.Edges()
	got := map[string]int64{}
	for _, e := range edges {
		got[e.Parent+"->"+e.Child] = e.Calls
	}
	if got["<root>->step"] != 1 {
		t.Fatalf("root edge missing: %v", got)
	}
	if got["step->flux"] != 2 {
		t.Fatalf("step->flux calls = %d", got["step->flux"])
	}
	if got["step->exchange"] != 1 {
		t.Fatalf("step->exchange calls = %d", got["step->exchange"])
	}
}

func TestUnbalancedStopPanics(t *testing.T) {
	p := New()
	p.Start("a")
	p.Start("b") // never stopped before a
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced stop must panic")
		}
	}()
	p.Stop("a")
}

func TestMergeAcrossRanks(t *testing.T) {
	mk := func() *Profiler {
		p := New()
		p.Start("work")
		spin(time.Millisecond)
		p.Stop("work")
		p.Finish()
		return p
	}
	ps := []*Profiler{mk(), mk(), mk()}
	flat, edges, elapsed := Merge(ps)
	if len(flat) != 1 || flat[0].Calls != 3 {
		t.Fatalf("merged flat = %+v", flat)
	}
	if len(edges) != 1 || edges[0].Calls != 3 {
		t.Fatalf("merged edges = %+v", edges)
	}
	if elapsed < flat[0].Total {
		t.Fatalf("merged elapsed %v < total %v", elapsed, flat[0].Total)
	}
}

func TestFormatFlat(t *testing.T) {
	p := New()
	p.Start("derivative")
	p.Stop("derivative")
	p.Finish()
	out := FormatFlat(p.Flat(), p.Elapsed())
	if !strings.Contains(out, "derivative") || !strings.Contains(out, "% time") {
		t.Fatalf("format missing columns:\n%s", out)
	}
}

func TestFormatCallGraph(t *testing.T) {
	p := New()
	p.Start("a")
	p.Start("b")
	p.Stop("b")
	p.Stop("a")
	p.Finish()
	out := FormatCallGraph(p.Edges())
	if !strings.Contains(out, "a -> b") {
		t.Fatalf("call graph missing edge:\n%s", out)
	}
}

func TestFinishIdempotent(t *testing.T) {
	p := New()
	p.Start("x")
	p.Stop("x")
	p.Finish()
	e1 := p.Elapsed()
	p.Finish()
	if p.Elapsed() != e1 {
		t.Fatal("double Finish changed elapsed")
	}
	// Reopening the window accumulates.
	p.Start("y")
	p.Stop("y")
	p.Finish()
	if p.Elapsed() < e1 {
		t.Fatal("elapsed shrank after reopen")
	}
}
