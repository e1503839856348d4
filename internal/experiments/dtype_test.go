package experiments

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/tensor"
)

// The f32-vs-f64 parity smoke: the quickstart configuration (heterogeneous
// fleet, Proposed method, sync scheduler) run at both dtypes from the same
// seed must land within 0.02 mean accuracy. Models initialize from the same
// draw sequence (f32 weights are the f64 draws, rounded), so the runs
// differ only by accumulated rounding — the tolerance is the accuracy-level
// budget DESIGN.md §7 assigns to that rounding.
func TestF32ParitySmoke(t *testing.T) {
	acc64 := parityRun(t, tensor.F64)
	acc32 := parityRun(t, tensor.F32)
	if d := math.Abs(acc64 - acc32); d > 0.02 {
		t.Fatalf("f32 accuracy %.4f vs f64 %.4f: |Δ| = %.4f exceeds the 0.02 parity budget", acc32, acc64, d)
	}
}

// parityRun executes the quickstart configuration at one dtype and returns
// the final mean accuracy.
func parityRun(t *testing.T, dt tensor.DType) float64 {
	t.Helper()
	s := ScaleFromEnv(Tiny())
	s.Rounds = 3
	s.DType = dt
	build, _, err := NewFleetBuilder(Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(MethodProposed, Fashion, build, s.Clients, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return Final(hist).MeanAcc
}

// The bf16-vs-f32 parity smoke: bf16 storage computes in f32 and narrows
// parameters at mutation boundaries, so its accuracy budget relative to f32
// is 0.03 (DESIGN.md §12).
func TestBF16ParitySmoke(t *testing.T) {
	acc32 := parityRun(t, tensor.F32)
	accBF := parityRun(t, tensor.BF16)
	if d := math.Abs(acc32 - accBF); d > 0.03 {
		t.Fatalf("bf16 accuracy %.4f vs f32 %.4f: |Δ| = %.4f exceeds the 0.03 parity budget", accBF, acc32, d)
	}
}

// Every scheduler runs end to end at f32, deterministically.
func TestF32AllSchedulers(t *testing.T) {
	for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func() []fl.RoundMetrics {
				s := Tiny()
				s.DType = tensor.F32
				build, _, err := NewFleetBuilder(Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
				if err != nil {
					t.Fatal(err)
				}
				hist, err := RunScheduled(MethodProposed, Fashion, build, s.Clients, s, 1.0, 0, 0,
					fl.SchedulerConfig{Kind: kind}, comm.Spec{})
				if err != nil {
					t.Fatal(err)
				}
				return hist
			}
			a, b := run(), run()
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("histories: %d vs %d evaluation points", len(a), len(b))
			}
			for i := range a {
				if a[i].MeanAcc != b[i].MeanAcc || a[i].UpBytes != b[i].UpBytes {
					t.Fatalf("f32 %s run is not deterministic at round %d", kind, a[i].Round)
				}
				if math.IsNaN(a[i].MeanAcc) || a[i].MeanAcc < 0 || a[i].MeanAcc > 1 {
					t.Fatalf("invalid f32 accuracy %v", a[i].MeanAcc)
				}
			}
		})
	}
}

// The rotation fleet reproduces fedsim's -arch/-width composition: client i
// gets arches[i % len] at widths[i % len], from the eager factory and from
// the per-id builder over either partition.
func TestRotationFleetComposition(t *testing.T) {
	s := Tiny()
	arches, err := ParseArchRotation("resnet, alexnet")
	if err != nil {
		t.Fatal(err)
	}
	widths, err := ParseWidthRotation("1,2")
	if err != nil {
		t.Fatal(err)
	}
	factory, _, err := NewRotationFleet(Fashion, data.Dirichlet, 4, s, arches, widths)
	if err != nil {
		t.Fatal(err)
	}
	lazy, _, err := NewRotationBuilder(Fashion, data.Dirichlet, 4, s, arches, widths, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		arch  models.Arch
		width int
	}{
		{models.ArchResNet, 1}, {models.ArchAlexNet, 2},
		{models.ArchResNet, 1}, {models.ArchAlexNet, 2},
	}
	for i, c := range factory() {
		for _, c := range []*fl.Client{c, lazy(i)} {
			if c.Model.Cfg.Arch != want[i].arch || c.Model.Cfg.Width != want[i].width {
				t.Fatalf("client %d: %v width %d, want %v width %d",
					i, c.Model.Cfg.Arch, c.Model.Cfg.Width, want[i].arch, want[i].width)
			}
		}
	}
	// A rotation fleet must actually train.
	build, _, err := NewRotationBuilder(Fashion, data.Dirichlet, 4, s, arches, widths, false)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(MethodProposed, Fashion, build, 4, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("rotation fleet produced no metrics")
	}
}

func TestParseRotationsReject(t *testing.T) {
	if _, err := ParseArchRotation("resnet,warpdrive"); err == nil {
		t.Fatal("unknown architecture must be rejected")
	}
	if _, err := ParseWidthRotation("1,0"); err == nil {
		t.Fatal("width 0 must be rejected")
	}
	if _, err := ParseWidthRotation("two"); err == nil {
		t.Fatal("non-integer width must be rejected")
	}
	if _, _, err := NewRotationFleet(Fashion, data.Dirichlet, 2, Tiny(), nil, nil); err == nil {
		t.Fatal("empty rotation must be rejected")
	}
}
