// Package prof is a lightweight execution profiler standing in for the
// gprof view of Figure 4: applications bracket named regions, and the
// profiler produces a flat profile (self time, total time, call counts,
// percentages) plus parent->child call-graph edges. One Profiler belongs
// to one rank; Merge aggregates across ranks.
package prof

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profiler accumulates region timings for a single goroutine (rank). It
// is not safe for concurrent use; create one per rank and Merge.
type Profiler struct {
	regions map[string]*regionAcc
	edges   map[[2]string]*edgeAcc
	stack   []frame
	began   time.Time
	running bool
	elapsed float64
}

type regionAcc struct {
	calls       int64
	total, self float64
}

type edgeAcc struct {
	calls int64
	total float64
}

type frame struct {
	name  string
	start time.Time
	child float64
}

// New returns an empty profiler; its wall-clock window opens at the first
// Start and closes at Finish.
func New() *Profiler {
	return &Profiler{
		regions: make(map[string]*regionAcc),
		edges:   make(map[[2]string]*edgeAcc),
	}
}

// Start opens a region on top of the profiler's stack; Stop closes it.
// Regions nest: time inside an inner region is charged to the inner
// region's self time and to the outer region's total (inclusive) time
// only.
func (p *Profiler) Start(name string) {
	now := time.Now()
	if !p.running {
		p.running = true
		p.began = now
	}
	p.stack = append(p.stack, frame{name: name, start: now})
}

// Stop closes the innermost open region, which must be name.
func (p *Profiler) Stop(name string) {
	depth := len(p.stack)
	if depth == 0 || p.stack[depth-1].name != name {
		panic(fmt.Sprintf("prof: unbalanced Stop for region %q (depth %d)", name, depth))
	}
	f := p.stack[depth-1]
	p.stack = p.stack[:depth-1]
	total := time.Since(f.start).Seconds()
	p.add(f.name, 1, total, total-f.child)
	parent := "<root>"
	if depth >= 2 {
		p.stack[depth-2].child += total
		parent = p.stack[depth-2].name
	}
	p.addEdge([2]string{parent, f.name}, 1, total)
}

// add charges calls and inclusive/exclusive seconds to region name.
func (p *Profiler) add(name string, calls int64, total, self float64) {
	a := p.regions[name]
	if a == nil {
		a = &regionAcc{}
		p.regions[name] = a
	}
	a.calls += calls
	a.total += total
	a.self += self
}

// addEdge charges calls and seconds to the parent->child arc k.
func (p *Profiler) addEdge(k [2]string, calls int64, total float64) {
	e := p.edges[k]
	if e == nil {
		e = &edgeAcc{}
		p.edges[k] = e
	}
	e.calls += calls
	e.total += total
}

// Finish closes the profiler's wall-clock window; further Starts reopen
// it. Finish is idempotent.
func (p *Profiler) Finish() {
	if p.running {
		p.elapsed += time.Since(p.began).Seconds()
		p.running = false
	}
}

// Elapsed returns the total wall seconds between the first Start and
// Finish.
func (p *Profiler) Elapsed() float64 {
	if p.running {
		return p.elapsed + time.Since(p.began).Seconds()
	}
	return p.elapsed
}

// RegionStat is one row of the flat profile.
type RegionStat struct {
	Name  string
	Calls int64
	Total float64 // inclusive seconds
	Self  float64 // exclusive seconds
}

// Edge is one parent->child arc of the call graph.
type Edge struct {
	Parent, Child string
	Calls         int64
	Total         float64
}

// Flat returns the flat profile sorted by descending self time — the
// layout of a gprof flat profile.
func (p *Profiler) Flat() []RegionStat {
	out := make([]RegionStat, 0, len(p.regions))
	for name, a := range p.regions {
		out = append(out, RegionStat{Name: name, Calls: a.calls, Total: a.total, Self: a.self})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Edges returns the call-graph arcs sorted by descending time.
func (p *Profiler) Edges() []Edge {
	out := make([]Edge, 0, len(p.edges))
	for k, e := range p.edges {
		out = append(out, Edge{Parent: k[0], Child: k[1], Calls: e.calls, Total: e.total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Parent+out[i].Child < out[j].Parent+out[j].Child
	})
	return out
}

// Merge returns a profiler-less aggregate of many ranks' flat profiles:
// summed calls and times per region, plus the summed elapsed window.
func Merge(profs []*Profiler) ([]RegionStat, []Edge, float64) {
	sum := New()
	for _, p := range profs {
		sum.elapsed += p.Elapsed()
		for name, a := range p.regions {
			sum.add(name, a.calls, a.total, a.self)
		}
		for k, e := range p.edges {
			sum.addEdge(k, e.calls, e.total)
		}
	}
	return sum.Flat(), sum.Edges(), sum.elapsed
}

// FormatFlat renders a flat profile as a gprof-style text table; total is
// the time base for the percentage column (pass the merged elapsed time).
func FormatFlat(stats []RegionStat, total float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %12s %12s %10s  %s\n", "% time", "self(s)", "total(s)", "calls", "name")
	for _, r := range stats {
		pct := 0.0
		if total > 0 {
			pct = 100 * r.Self / total
		}
		fmt.Fprintf(&b, "%6.2f%% %12.6f %12.6f %10d  %s\n", pct, r.Self, r.Total, r.Calls, r.Name)
	}
	return b.String()
}

// FormatCallGraph renders the call-graph arcs as indented text.
func FormatCallGraph(edges []Edge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s  %s\n", "total(s)", "calls", "parent -> child")
	for _, e := range edges {
		fmt.Fprintf(&b, "%12.6f %10d  %s -> %s\n", e.Total, e.Calls, e.Parent, e.Child)
	}
	return b.String()
}
