package comm

import (
	"sort"
)

// Profile accumulates mpiP-style statistics for one rank: for every
// (MPI operation, call site) pair, the call count, host wall time,
// modeled network time, and byte counts. Call sites are the names of the
// application's obs regions (set through Rank.SwapSite), mirroring how
// mpiP attributes MPI time to source locations (Figures 8-10 of the
// paper).
type Profile struct {
	Rank int

	appWall float64
	site    string
	stats   map[statKey]*CallStat
	order   []statKey // first-seen order, for stable iteration
}

type statKey struct{ op, site string }

// CallStat is the accumulated record of one (operation, site) pair.
type CallStat struct {
	Op       string  // MPI operation name, e.g. "MPI_Wait"
	Site     string  // application call-site label, e.g. "gs_op"
	Count    int64   // number of calls
	Wall     float64 // total host wall seconds inside the call
	Modeled  float64 // total modeled network/wait seconds
	Bytes    int64   // total payload bytes moved by this rank
	MaxBytes int64   // largest single payload
	MinBytes int64   // smallest single payload (0 until first call)
}

// AvgBytes returns the mean payload size per call.
func (c *CallStat) AvgBytes() float64 {
	if c.Count == 0 {
		return 0
	}
	return float64(c.Bytes) / float64(c.Count)
}

// Name returns "Op@Site" (or just Op when no site label was active).
func (c *CallStat) Name() string {
	if c.Site == "" {
		return c.Op
	}
	return c.Op + "@" + c.Site
}

func newProfile(rank int) *Profile {
	return &Profile{Rank: rank, stats: make(map[statKey]*CallStat)}
}

func (p *Profile) record(op string, wall, modeled float64, bytes int64) {
	k := statKey{op, p.site}
	s, ok := p.stats[k]
	if !ok {
		s = &CallStat{Op: op, Site: p.site}
		p.stats[k] = s
		p.order = append(p.order, k)
	}
	s.Count++
	s.Wall += wall
	s.Modeled += modeled
	s.Bytes += bytes
	if bytes > s.MaxBytes {
		s.MaxBytes = bytes
	}
	if s.Count == 1 || bytes < s.MinBytes {
		s.MinBytes = bytes
	}
}

// AppWall returns the rank's total host wall time from communicator start
// to this rank's completion.
func (p *Profile) AppWall() float64 { return p.appWall }

// OpTotals is a profile's accumulated statistics classified into the
// coarse buckets the telemetry step stream reports. The split follows
// where modeled time is charged: point-to-point receives and waits are
// pure blocking, sends charge only injection overhead, and collectives
// mix both (counted in Modeled but not Wait).
type OpTotals struct {
	Calls     int64
	Wall      float64 // host seconds inside MPI operations
	Modeled   float64 // modeled seconds inside MPI operations
	Wait      float64 // modeled seconds blocked on receive-side ops
	BytesSent int64   // payload bytes sent point-to-point
}

// Totals classifies the profile so far. Like the rest of Profile it is
// for use by the owning rank goroutine; taking deltas of successive
// calls yields per-phase splits.
func (p *Profile) Totals() OpTotals {
	var t OpTotals
	for _, k := range p.order {
		s := p.stats[k]
		t.Calls += s.Count
		t.Wall += s.Wall
		t.Modeled += s.Modeled
		switch s.Op {
		case "MPI_Recv", "MPI_Wait":
			t.Wait += s.Modeled
		case "MPI_Send", "MPI_Isend":
			t.BytesSent += s.Bytes
		case "MPI_Sendrecv":
			// Records the send and receive payload together; the wait
			// share of its modeled time is blocking.
			t.Wait += s.Modeled
			t.BytesSent += s.Bytes / 2
		}
	}
	return t
}

// MPIWall returns total host wall seconds spent inside MPI operations.
// Summation follows call-site insertion order (not map order) so the
// float result is reproducible across runs.
func (p *Profile) MPIWall() float64 {
	t := 0.0
	for _, k := range p.order {
		t += p.stats[k].Wall
	}
	return t
}

// MPIModeled returns total modeled network seconds across MPI operations.
// Summation follows call-site insertion order (not map order) so the
// float result is reproducible across runs.
func (p *Profile) MPIModeled() float64 {
	t := 0.0
	for _, k := range p.order {
		t += p.stats[k].Modeled
	}
	return t
}

// Calls returns this rank's per-site statistics sorted by descending wall
// time.
func (p *Profile) Calls() []*CallStat {
	out := make([]*CallStat, 0, len(p.order))
	for _, k := range p.order {
		out = append(out, p.stats[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}

// RankMPI summarizes one rank's MPI share of execution, the per-rank bars
// of Figure 8.
type RankMPI struct {
	Rank        int
	AppWall     float64 // total wall seconds
	MPIWall     float64 // wall seconds inside MPI
	VirtualTime float64 // modeled app completion time
	MPIModeled  float64 // modeled seconds inside MPI
}

// FracWall returns the wall-time MPI fraction.
func (r RankMPI) FracWall() float64 {
	if r.AppWall == 0 {
		return 0
	}
	return r.MPIWall / r.AppWall
}

// FracModeled returns the modeled-time MPI fraction.
func (r RankMPI) FracModeled() float64 {
	if r.VirtualTime == 0 {
		return 0
	}
	return r.MPIModeled / r.VirtualTime
}

// RankMPIFractions returns the Figure 8 data: per-rank MPI time share.
func (s *Stats) RankMPIFractions() []RankMPI {
	out := make([]RankMPI, s.Size)
	for i, p := range s.Profiles {
		out[i] = RankMPI{
			Rank:        i,
			AppWall:     p.AppWall(),
			MPIWall:     p.MPIWall(),
			VirtualTime: s.VirtualTimes[i],
			MPIModeled:  p.MPIModeled(),
		}
	}
	return out
}

// SiteSummary aggregates one (operation, site) pair across all ranks: the
// rows of Figures 9 (time per call site) and 10 (message sizes).
type SiteSummary struct {
	Op       string
	Site     string
	Count    int64
	Wall     float64
	Modeled  float64
	Bytes    int64
	MaxBytes int64
	MinBytes int64
}

// Name returns "Op@Site" (or just Op when no site label was recorded).
func (ss SiteSummary) Name() string {
	if ss.Site == "" {
		return ss.Op
	}
	return ss.Op + "@" + ss.Site
}

// AvgBytes returns mean payload bytes per call across all ranks.
func (ss SiteSummary) AvgBytes() float64 {
	if ss.Count == 0 {
		return 0
	}
	return float64(ss.Bytes) / float64(ss.Count)
}

// AggregateSites merges per-rank profiles into per-call-site totals,
// sorted by descending wall time (the ordering of Figure 9).
func (s *Stats) AggregateSites() []SiteSummary {
	agg := make(map[statKey]*SiteSummary)
	var order []statKey
	for _, p := range s.Profiles {
		for _, k := range p.order {
			cs := p.stats[k]
			ss, ok := agg[k]
			if !ok {
				ss = &SiteSummary{Op: cs.Op, Site: cs.Site, MinBytes: cs.MinBytes}
				agg[k] = ss
				order = append(order, k)
			}
			ss.Count += cs.Count
			ss.Wall += cs.Wall
			ss.Modeled += cs.Modeled
			ss.Bytes += cs.Bytes
			if cs.MaxBytes > ss.MaxBytes {
				ss.MaxBytes = cs.MaxBytes
			}
			if cs.Count > 0 && cs.MinBytes < ss.MinBytes {
				ss.MinBytes = cs.MinBytes
			}
		}
	}
	out := make([]SiteSummary, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}

// TotalMPIWall sums MPI wall time over all ranks.
func (s *Stats) TotalMPIWall() float64 {
	t := 0.0
	for _, p := range s.Profiles {
		t += p.MPIWall()
	}
	return t
}

// TotalAppWall sums application wall time over all ranks.
func (s *Stats) TotalAppWall() float64 {
	t := 0.0
	for _, p := range s.Profiles {
		t += p.AppWall()
	}
	return t
}
