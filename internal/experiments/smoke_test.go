package experiments

import (
	"testing"

	"repro/internal/data"
)

// TestFedClassAvgLearns is the end-to-end smoke test: a tiny heterogeneous
// fleet must beat chance and improve over its initial accuracy.
func TestFedClassAvgLearns(t *testing.T) {
	s := Tiny()
	s.Rounds = 12
	s.TrainPerClass = 24
	s.TestPerClass = 16
	build, ds, err := NewFleetBuilder(Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(MethodProposed, Fashion, build, s.Clients, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist[0], Final(hist)
	chance := 1.0 / float64(ds.NumClasses)
	t.Logf("acc: round1 %.3f → final %.3f (chance %.3f)", first.MeanAcc, last.MeanAcc, chance)
	if last.MeanAcc <= chance+0.05 {
		t.Fatalf("final accuracy %.3f did not beat chance %.3f", last.MeanAcc, chance)
	}
	if last.MeanAcc < first.MeanAcc-0.05 {
		t.Fatalf("accuracy regressed: %.3f → %.3f", first.MeanAcc, last.MeanAcc)
	}
}

// TestAllMethodsRun exercises every method end to end on minimal configs.
func TestAllMethodsRun(t *testing.T) {
	s := Tiny()
	s.Rounds = 2
	het, _, err := NewFleetBuilder(Fashion, data.Skewed, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	hom, _, err := NewFleetBuilder(Fashion, data.Dirichlet, "homogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	proto, _, err := NewFleetBuilder(Fashion, data.Dirichlet, "proto", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		method string
		build  ClientBuilder
	}{
		{MethodBaseline, het},
		{MethodFedProto, proto},
		{MethodKTpFL, het},
		{MethodProposed, het},
		{MethodFedAvg, hom},
		{MethodFedProx, hom},
		{MethodKTpFLWeight, hom},
		{MethodProposedWeight, hom},
		{MethodAblationCA, het},
		{MethodAblationCAPR, het},
		{MethodAblationCACL, het},
		{MethodAblationCAPRCL, het},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.method, func(t *testing.T) {
			hist, err := Run(tc.method, Fashion, tc.build, s.Clients, s, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) == 0 {
				t.Fatal("no metrics recorded")
			}
			fin := Final(hist)
			if fin.MeanAcc < 0 || fin.MeanAcc > 1 {
				t.Fatalf("accuracy out of range: %v", fin.MeanAcc)
			}
		})
	}
}
