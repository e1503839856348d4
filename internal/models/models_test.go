package models

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

func allArchs() []Arch {
	return []Arch{ArchMLP, ArchAlexNet, ArchResNet, ArchShuffleNet, ArchGoogLeNet, ArchCNN2}
}

func cfgFor(a Arch) Config {
	return Config{Arch: a, InC: 1, InH: 12, InW: 12, FeatDim: 16, NumClasses: 10}
}

func TestEveryArchForwardShapes(t *testing.T) {
	for _, a := range allArchs() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			m := New(cfgFor(a), xrand.New(1))
			x := tensor.New(3, 1, 12, 12)
			x.FillRandn(rng, 1)
			feats, logits := m.Forward(x, true)
			if feats.Rows() != 3 || feats.Cols() != 16 {
				t.Fatalf("features shape %v", feats.Shape)
			}
			if logits.Rows() != 3 || logits.Cols() != 10 {
				t.Fatalf("logits shape %v", logits.Shape)
			}
		})
	}
}

func TestEveryArchBackwardRuns(t *testing.T) {
	for _, a := range allArchs() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			m := New(cfgFor(a), xrand.New(2))
			x := tensor.New(2, 1, 12, 12)
			x.FillRandn(rng, 1)
			feats, logits := m.Forward(x, true)
			_ = feats
			g := tensor.New(logits.Shape...)
			g.Fill(0.1)
			dfeat := m.Classifier.Backward(g)
			dx := m.Extractor.Backward(dfeat)
			if dx.Dim(0) != 2 {
				t.Fatalf("dx shape %v", dx.Shape)
			}
			// Some parameter gradient must be nonzero.
			var any bool
			for _, p := range m.Params() {
				if p.Grad.MaxAbs() > 0 {
					any = true
					break
				}
			}
			if !any {
				t.Fatal("no gradients accumulated")
			}
		})
	}
}

func TestRGBInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{Arch: ArchResNet, InC: 3, InH: 12, InW: 12, FeatDim: 16, NumClasses: 10}
	m := New(cfg, xrand.New(3))
	x := tensor.New(2, 3, 12, 12)
	x.FillRandn(rng, 1)
	_, logits := m.Forward(x, false)
	if logits.Cols() != 10 {
		t.Fatalf("logits %v", logits.Shape)
	}
}

func TestClassifierShapeSharedAcrossArchs(t *testing.T) {
	// The core requirement of FedClassAvg: all architectures expose an
	// identically shaped classifier.
	var want int
	for i, a := range HeterogeneousSet {
		m := New(cfgFor(a), xrand.New(4))
		n := nn.NumParams(m.ClassifierParams())
		if i == 0 {
			want = n
		} else if n != want {
			t.Fatalf("%v classifier has %d params, want %d", a, n, want)
		}
	}
	if want != 16*10+10 {
		t.Fatalf("classifier params %d, want %d", want, 16*10+10)
	}
}

func TestArchitecturesActuallyDiffer(t *testing.T) {
	seen := map[int]Arch{}
	for _, a := range HeterogeneousSet {
		m := New(cfgFor(a), xrand.New(5))
		n := nn.NumParams(m.Extractor.Params())
		if prev, dup := seen[n]; dup {
			t.Fatalf("%v and %v have identical extractor param counts (%d); heterogeneity lost", prev, a, n)
		}
		seen[n] = a
	}
}

func TestCNN2WidthHeterogeneity(t *testing.T) {
	counts := map[int]bool{}
	for w := 1; w <= 3; w++ {
		cfg := cfgFor(ArchCNN2)
		cfg.Width = w
		m := New(cfg, xrand.New(6))
		counts[nn.NumParams(m.Extractor.Params())] = true
		// Classifier stays fixed regardless of width.
		if nn.NumParams(m.ClassifierParams()) != 16*10+10 {
			t.Fatal("CNN2 classifier shape must not depend on width")
		}
	}
	if len(counts) != 3 {
		t.Fatalf("widths should produce distinct extractors, got %d distinct", len(counts))
	}
}

func TestDeterministicInit(t *testing.T) {
	m1 := New(cfgFor(ArchResNet), xrand.New(7))
	m2 := New(cfgFor(ArchResNet), xrand.New(7))
	f1 := nn.FlattenParams(m1.Params())
	f2 := nn.FlattenParams(m2.Params())
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("same seed must give identical weights")
		}
	}
	m3 := New(cfgFor(ArchResNet), xrand.New(8))
	f3 := nn.FlattenParams(m3.Params())
	same := true
	for i := range f1 {
		if f1[i] != f3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must give different weights")
	}
}

func TestTrainEvalModesDiffer(t *testing.T) {
	// BatchNorm-bearing models must behave differently in train vs eval.
	rng := rand.New(rand.NewSource(9))
	m := New(cfgFor(ArchResNet), xrand.New(9))
	x := tensor.New(4, 1, 12, 12)
	x.FillRandn(rng, 1)
	// The classifier's output is one buffer, reused by the next forward.
	_, trainLogits := m.Forward(x, true)
	trainLogits = trainLogits.Clone()
	_, evalLogits := m.Forward(x, false)
	if tensor.ApproxEqual(trainLogits, evalLogits, 1e-9) {
		t.Fatal("train and eval outputs identical; batch norm inactive?")
	}
}

func TestUnknownArchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown arch must panic")
		}
	}()
	New(Config{Arch: Arch(99), InC: 1, InH: 8, InW: 8, FeatDim: 8, NumClasses: 2}, xrand.New(1))
}

func TestArchStrings(t *testing.T) {
	for _, a := range allArchs() {
		if a.String() == "" {
			t.Fatalf("arch %d has empty name", a)
		}
	}
}

func TestParseArchCaseInsensitive(t *testing.T) {
	for _, in := range []string{"resnet", "ResNet", "MiniResNet", "MINIRESNET", "miniresnet"} {
		a, err := ParseArch(in)
		if err != nil || a != ArchResNet {
			t.Fatalf("ParseArch(%q) = %v, %v", in, a, err)
		}
	}
	if _, err := ParseArch("warpdrive"); err == nil {
		t.Fatal("unknown arch must be rejected")
	}
}
