package comm

import (
	"strings"
	"testing"
)

func TestTracerRecordsP2P(t *testing.T) {
	var tr MemTracer
	_, err := Run(2, Options{Tracer: &tr}, func(r *Rank) error {
		if r.ID() == 0 {
			r.SwapSite("exchange")
			r.Send(1, 5, []float64{1, 2, 3})
		} else {
			r.Recv(0, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(events))
	}
	e := events[0]
	if e.Src != 0 || e.Dst != 1 || e.Tag != 5 || e.Bytes != 24 || e.Site != "exchange" {
		t.Fatalf("event = %+v", e)
	}
	if e.ArriveVT <= e.SendVT {
		t.Fatalf("arrival %v must follow send %v", e.ArriveVT, e.SendVT)
	}
}

func TestTracerSeesCollectiveWires(t *testing.T) {
	var tr MemTracer
	_, err := Run(4, Options{Tracer: &tr}, func(r *Rank) error {
		r.Allreduce(OpSum, []float64{1})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recursive doubling on 4 ranks: 2 rounds x 4 ranks = 8 wire
	// messages.
	if tr.Len() != 8 {
		t.Fatalf("allreduce produced %d wire messages, want 8", tr.Len())
	}
}

func TestTraceSummary(t *testing.T) {
	var tr MemTracer
	_, err := Run(4, Options{Tracer: &tr, Grid: [3]int{4, 1, 1}}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(3, 1, make([]float64, 10)) // 3 hops on the grid
		}
		if r.ID() == 3 {
			r.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Messages != 1 || s.Bytes != 80 || s.MeanBytes != 80 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MaxHops != 3 {
		t.Fatalf("hops = %d, want 3 (grid distance)", s.MaxHops)
	}
}

func TestTraceCSV(t *testing.T) {
	var tr MemTracer
	_, err := Run(2, Options{Tracer: &tr}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 7, []float64{1})
		} else {
			r.Recv(0, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "src,dst,tag,bytes,hops,send_vt,arrive_vt,site") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "0,1,7,8,1,") {
		t.Fatalf("missing event row:\n%s", out)
	}
}

func TestTracerCapDrops(t *testing.T) {
	tr := MemTracer{Cap: 3}
	_, err := Run(4, Options{Tracer: &tr}, func(r *Rank) error {
		r.Allreduce(OpSum, []float64{1}) // 8 wire messages on 4 ranks
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("retained %d events, want Cap=3", tr.Len())
	}
	if tr.Dropped() != 5 {
		t.Fatalf("dropped %d events, want 5", tr.Dropped())
	}
	s := tr.Summarize()
	if s.Dropped != 5 || s.Messages != 3 {
		t.Fatalf("summary = %+v, want 3 messages and 5 dropped", s)
	}
}

func TestMultiTracerFansOut(t *testing.T) {
	var a, b MemTracer
	_, err := Run(2, Options{Tracer: MultiTracer{&a, &b}}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{1})
		} else {
			r.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out lost events: a=%d b=%d, want 1 each", a.Len(), b.Len())
	}
}

func TestNoTracerNoPanic(t *testing.T) {
	_, err := RunSimple(2, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, nil)
		} else {
			r.Recv(0, 0)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateModel(t *testing.T) {
	m, err := CalibrateModel("host", []int{1, 64, 4096, 65536}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "host" {
		t.Fatalf("name = %q", m.Name)
	}
	if m.Alpha <= 0 || m.Beta <= 0 {
		t.Fatalf("nonpositive fit: alpha=%g beta=%g", m.Alpha, m.Beta)
	}
	// Sanity: moving 1MB must be modeled slower than 8 bytes.
	if m.Cost(1<<20, 1) <= m.Cost(8, 1) {
		t.Fatal("calibrated model not size-sensitive")
	}
	// The in-process transport is far faster than gigabit Ethernet.
	if m.Alpha > 1e-3 {
		t.Fatalf("calibrated latency %g implausibly high", m.Alpha)
	}
}

func TestCalibrateModelDefaults(t *testing.T) {
	m, err := CalibrateModel("", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "calibrated" {
		t.Fatalf("default name = %q", m.Name)
	}
}
