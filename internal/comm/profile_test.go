package comm

import (
	"testing"
)

func TestProfileRecordsCalls(t *testing.T) {
	stats, err := RunSimple(2, func(r *Rank) error {
		r.SwapSite("exchange")
		if r.ID() == 0 {
			r.Send(1, 0, []float64{1, 2})
			r.Send(1, 0, []float64{1, 2, 3, 4})
		} else {
			r.Recv(0, 0)
			r.Recv(0, 0)
		}
		r.SwapSite("")
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p0 := stats.Profiles[0]
	var send *CallStat
	for _, c := range p0.Calls() {
		if c.Op == "MPI_Send" && c.Site == "exchange" {
			send = c
		}
	}
	if send == nil {
		t.Fatal("no MPI_Send@exchange stat on rank 0")
	}
	if send.Count != 2 {
		t.Fatalf("send count = %d", send.Count)
	}
	if send.Bytes != 16+32 {
		t.Fatalf("send bytes = %d", send.Bytes)
	}
	if send.MinBytes != 16 || send.MaxBytes != 32 {
		t.Fatalf("min/max = %d/%d", send.MinBytes, send.MaxBytes)
	}
	if send.AvgBytes() != 24 {
		t.Fatalf("avg = %v", send.AvgBytes())
	}
	if send.Name() != "MPI_Send@exchange" {
		t.Fatalf("name = %q", send.Name())
	}
}

func TestProfileAggregation(t *testing.T) {
	stats, err := RunSimple(4, func(r *Rank) error {
		r.SwapSite("phase1")
		r.Allreduce(OpSum, []float64{1})
		r.SwapSite("phase2")
		r.Allreduce(OpSum, []float64{2})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := stats.AggregateSites()
	byName := map[string]SiteSummary{}
	for _, s := range sites {
		byName[s.Name()] = s
	}
	for _, name := range []string{"MPI_Allreduce@phase1", "MPI_Allreduce@phase2"} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("missing aggregate %q (have %v)", name, byName)
		}
		if s.Count != 4 {
			t.Fatalf("%s count = %d, want 4 (one per rank)", name, s.Count)
		}
	}
}

func TestRankMPIFractions(t *testing.T) {
	stats, err := RunSimple(3, func(r *Rank) error {
		r.Barrier()
		r.Allreduce(OpMax, []float64{float64(r.ID())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fr := stats.RankMPIFractions()
	if len(fr) != 3 {
		t.Fatalf("fractions for %d ranks", len(fr))
	}
	for _, f := range fr {
		if f.AppWall <= 0 {
			t.Errorf("rank %d app wall %v", f.Rank, f.AppWall)
		}
		if f.FracWall() < 0 || f.FracWall() > 1 {
			t.Errorf("rank %d wall fraction %v outside [0,1]", f.Rank, f.FracWall())
		}
		if f.MPIModeled <= 0 {
			t.Errorf("rank %d modeled MPI time %v", f.Rank, f.MPIModeled)
		}
	}
}

func TestTotalsConsistent(t *testing.T) {
	stats, err := RunSimple(2, func(r *Rank) error {
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range stats.Profiles {
		sum += p.MPIWall()
	}
	if got := stats.TotalMPIWall(); got != sum {
		t.Fatalf("TotalMPIWall = %v, want %v", got, sum)
	}
	if stats.TotalAppWall() <= 0 {
		t.Fatal("TotalAppWall must be positive")
	}
}

func TestWaitChargedToMPIWait(t *testing.T) {
	stats, err := RunSimple(2, func(r *Rank) error {
		if r.ID() == 0 {
			req := r.Irecv(1, 0)
			req.Wait()
		} else {
			r.Send(0, 0, make([]float64, 4096))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range stats.Profiles[0].Calls() {
		if c.Op == "MPI_Wait" {
			found = true
			if c.Bytes != 4096*8 {
				t.Errorf("MPI_Wait bytes = %d", c.Bytes)
			}
			if c.Modeled <= 0 {
				t.Errorf("MPI_Wait modeled time = %v, want > 0", c.Modeled)
			}
		}
	}
	if !found {
		t.Fatal("no MPI_Wait entry recorded")
	}
}
