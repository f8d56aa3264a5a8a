package cli

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sem"
)

func TestParseTriple(t *testing.T) {
	got, err := ParseTriple("8x8x4")
	if err != nil || got != [3]int{8, 8, 4} {
		t.Fatalf("ParseTriple = %v, %v", got, err)
	}
	for _, bad := range []string{"", "8x8", "8x8x4x2", "axbxc", "8x-1x4", "8x0x4"} {
		if _, err := ParseTriple(bad); err == nil {
			t.Errorf("ParseTriple(%q) accepted", bad)
		}
	}
}

func TestParseVariant(t *testing.T) {
	if v, err := ParseVariant("optimized"); err != nil || v != sem.Optimized {
		t.Fatalf("optimized: %v %v", v, err)
	}
	if v, err := ParseVariant("basic"); err != nil || v != sem.Basic {
		t.Fatalf("basic: %v %v", v, err)
	}
	if _, err := ParseVariant("turbo"); err == nil {
		t.Fatal("bad variant accepted")
	}
}

func TestParseMachine(t *testing.T) {
	for _, m := range []hw.Machine{hw.Opteron6378, hw.I52500, hw.Generic} {
		got, err := ParseMachine(m.Name)
		if err != nil || got.Name != m.Name {
			t.Fatalf("ParseMachine(%q): %v %v", m.Name, got, err)
		}
	}
	if _, err := ParseMachine("cray-1"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestRankPath(t *testing.T) {
	for _, c := range []struct {
		path string
		rank int
		want string
	}{
		{"t.json", 2, "t.rank2.json"},
		{"m.jsonl", 0, "m.rank0.jsonl"},
		{"out/run.v1/trace.json", 13, "out/run.v1/trace.rank13.json"},
		{"out.d/trace", 1, "out.d/trace.rank1"},
	} {
		if got := RankPath(c.path, c.rank); got != c.want {
			t.Errorf("RankPath(%q, %d) = %q, want %q", c.path, c.rank, got, c.want)
		}
	}
}
