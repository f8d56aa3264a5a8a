package solver

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
)

// A rank that dies mid-run must surface as the typed DeadRankError on
// its peers. The survivor's exchange panics with that error inside the
// gs_op region while the timestep region is still open; the deferred
// End of timestep must close the abandoned inner regions instead of
// raising a second panic that masks the first.
func TestDeadRankErrorNotMaskedByOpenRegions(t *testing.T) {
	cfg := DefaultConfig(2, 4, 2)
	_, err := comm.Run(2, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.1, 0.5))
		dt := s.StableDt()
		s.Step(dt)
		if r.ID() == 1 {
			r.Kill()
		}
		s.Step(dt)
		return nil
	})
	var dre comm.DeadRankError
	if !errors.As(err, &dre) {
		t.Fatalf("run error = %v (%T), want a DeadRankError", err, err)
	}
	if dre.Rank != 1 {
		t.Fatalf("DeadRankError names rank %d, want 1", dre.Rank)
	}
}
