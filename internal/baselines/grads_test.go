package baselines

import (
	"testing"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// A packed model holds gradients only inside a step: no Grad of any member
// holds storage after a TrainEpochs group with a proximal hook, after
// KT-pFL's distillation, or after the benchmark probe's sequence — a
// proximal term outside any step, Backward called directly, the optimizer
// step and nn.ZeroGrads. A pass that ends with gradients in use drops them.
func TestNoGradientsOutsideAStep(t *testing.T) {
	noGrads := func(when string, cs ...*fl.Client) {
		t.Helper()
		for _, c := range cs {
			for _, p := range c.Model.Params() {
				if p.Grad.Size() != 0 {
					t.Fatalf("%s: client %d's %s holds %d gradients", when, c.ID, p.Name, p.Grad.Size())
				}
			}
		}
	}
	het4, group := fleet(t, 4, het), fleet(t, 2, mlp)
	noGrads("built", append(het4, group...)...)
	prox := func(cs []*fl.Client) fl.Objective {
		refs := make([][]float64, len(cs))
		for k, c := range cs {
			refs[k] = nn.FlattenParams(c.Model.ClassifierParams())
		}
		return fl.Objective{Hook: func(k int) { loss.Proximal(cs[k].Model.ClassifierParams(), refs[k], 0.1) }}
	}
	fl.TrainEpochs(group, 8, 1, prox(group))
	for _, c := range het4 {
		fl.TrainEpochs([]*fl.Client{c}, 8, 1, prox([]*fl.Client{c}))
	}
	noGrads("after TrainEpochs", append(het4, group...)...)

	algo := NewKTpFL(1, 2, 12)
	public := data.PublicSplit(data.SynthFashion(6, 4, 3), 12, 77)
	algo.SetPublic(public, 1, 12, 12)
	target := tensor.New(len(public), 10)
	target.Fill(0.1)
	for _, c := range het4 {
		algo.distill(c, target)
	}
	noGrads("after a distillation", het4...)

	labels := make([]int, len(public))
	for i, e := range public {
		labels[i] = e.Y
	}
	for _, c := range het4 {
		m, params := c.Model, c.Model.Params()
		_, logits := m.Forward(algo.publicX, true)
		loss.Proximal(m.ClassifierParams(), nn.FlattenParams(m.ClassifierParams()), 0.1)
		_, dl := loss.CrossEntropy(logits, labels)
		m.Extractor.Backward(m.Classifier.Backward(dl))
		c.Optimizer.Step(params)
		nn.ZeroGrads(params)
		noGrads("after the probe's sequence", c)

		_, logits = m.Forward(algo.publicX, true)
		_, dl = loss.CrossEntropy(logits, labels)
		m.Extractor.Backward(m.Classifier.Backward(dl))
		if _, g := nn.Flat(params); g.Size() != nn.NumParams(params) {
			t.Fatalf("client %d: a backward pass brought %d of %d gradients into use", c.ID, g.Size(), nn.NumParams(params))
		}
		m.ReleaseWorkspaces()
		noGrads("after a pass that ended inside a step", c)
	}
}
