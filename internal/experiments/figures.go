package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/tensor"
)

// Figure23 reproduces Figures 2 and 3: the non-iid label distribution
// across clients, as per-client label histograms.
func Figure23(name DatasetName, kind data.PartitionKind, k int, s Scale) ([][]int, *data.Dataset, error) {
	ds := data.Generate(Spec(name, s))
	parts, err := data.Partition(ds, k, data.PartitionOptions{Kind: kind, Alpha: 0.5, Seed: s.Seed + 17})
	if err != nil {
		return nil, nil, err
	}
	return data.LabelHistogram(parts, ds.NumClasses), ds, nil
}

// HistogramMarkdown renders a label histogram as a markdown grid.
func HistogramMarkdown(hist [][]int, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n| client \\ class |", title)
	if len(hist) == 0 {
		return b.String()
	}
	for c := range hist[0] {
		fmt.Fprintf(&b, " %d |", c)
	}
	b.WriteString("\n|---|")
	for range hist[0] {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for i, row := range hist {
		fmt.Fprintf(&b, "| %d |", i)
		for _, v := range row {
			fmt.Fprintf(&b, " %d |", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure45 reproduces the heterogeneous learning curves (Figures 4 and 5):
// FedClassAvg vs KT-pFL vs the local baseline on one dataset/partition.
func Figure45(name DatasetName, kind data.PartitionKind, s Scale) ([]CurveSeries, error) {
	build, _, err := NewFleetBuilder(name, kind, "heterogeneous", s.Clients, s)
	if err != nil {
		return nil, err
	}
	var out []CurveSeries
	for _, m := range []string{MethodProposed, MethodKTpFL, MethodBaseline} {
		hist, err := Run(m, name, build, s.Clients, s, 1.0)
		if err != nil {
			return nil, fmt.Errorf("figure45 %s: %w", m, err)
		}
		out = append(out, CurveSeries{Label: m, Points: hist})
	}
	return out, nil
}

// Figure67 reproduces the homogeneous learning curves (Figures 6 and 7):
// FedClassAvg(+weight) vs KT-pFL(+weight) vs FedAvg under Dir(0.5).
func Figure67(name DatasetName, k int, rate float64, s Scale) ([]CurveSeries, error) {
	build, _, err := NewFleetBuilder(name, data.Dirichlet, "homogeneous", k, s)
	if err != nil {
		return nil, err
	}
	var out []CurveSeries
	for _, m := range []string{MethodProposedWeight, MethodKTpFLWeight, MethodFedAvg} {
		hist, err := Run(m, name, build, k, s, rate)
		if err != nil {
			return nil, fmt.Errorf("figure67 %s: %w", m, err)
		}
		out = append(out, CurveSeries{Label: m, Points: hist})
	}
	return out, nil
}

// Figure8Result summarizes a t-SNE comparison quantitatively: how well
// features cluster by label (purity) and how much clients intermix within
// label neighborhoods (mixing), for the isolated baseline vs FedClassAvg.
type Figure8Result struct {
	BaselinePurity float64
	BaselineMixing float64
	ProposedPurity float64
	ProposedMixing float64
	Embedding      *tensor.Tensor // proposed-run embedding, [n, 2]
	Labels         []int
	ClientOf       []int
}

// Figure8 trains a baseline fleet and a FedClassAvg fleet, extracts each
// client's features for its own test points, embeds them with t-SNE and
// reports kNN label purity and client-mixing — the quantitative version of
// the paper's Figure 8 claim.
func Figure8(name DatasetName, s Scale, perClient int) (*Figure8Result, error) {
	build, _, err := NewFleetBuilder(name, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		return nil, err
	}

	collect := func(clients []*fl.Client) (*tensor.Tensor, []int, []int) {
		var rows []*tensor.Tensor
		var labels, owners []int
		for _, c := range clients {
			n := perClient
			if n > len(c.Test) {
				n = len(c.Test)
			}
			if n == 0 {
				continue
			}
			x, y := data.BatchTensor(c.Test[:n], c.Model.Cfg.InC, c.Model.Cfg.InH, c.Model.Cfg.InW)
			// Analysis runs in float64 bookkeeping; f32 features widen here
			// (AsType is the identity on the f64 reference path).
			feats := c.Model.Features(x, false).AsType(tensor.F64)
			rows = append(rows, feats)
			for i := 0; i < n; i++ {
				labels = append(labels, y[i])
				owners = append(owners, c.ID)
			}
		}
		return tensor.ConcatRows(rows...), labels, owners
	}

	// Baseline: local training only.
	baseClients := build.fleet(s.Clients)
	baseSim := fl.NewSimulation(baseClients, fl.Config{Rounds: s.Rounds, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	baseAlgo, err := NewAlgorithm(MethodBaseline, name, s)
	if err != nil {
		return nil, err
	}
	if _, err := baseSim.Run(baseAlgo); err != nil {
		return nil, err
	}
	bFeats, bLabels, bOwners := collect(baseClients)

	// Proposed.
	propClients := build.fleet(s.Clients)
	propSim := fl.NewSimulation(propClients, fl.Config{Rounds: s.Rounds, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	propAlgo, err := NewAlgorithm(MethodProposed, name, s)
	if err != nil {
		return nil, err
	}
	if _, err := propSim.Run(propAlgo); err != nil {
		return nil, err
	}
	pFeats, pLabels, pOwners := collect(propClients)

	const k = 5
	res := &Figure8Result{
		BaselinePurity: analysis.KNNLabelPurity(bFeats, bLabels, k),
		BaselineMixing: analysis.ClientMixingIndex(bFeats, bOwners, k),
		ProposedPurity: analysis.KNNLabelPurity(pFeats, pLabels, k),
		ProposedMixing: analysis.ClientMixingIndex(pFeats, pOwners, k),
		Labels:         pLabels,
		ClientOf:       pOwners,
	}
	res.Embedding = analysis.TSNE(pFeats, analysis.TSNEOptions{Seed: s.Seed, Iterations: 150})
	return res, nil
}

// Figure9Result is the conductance comparison: one attribution vector per
// correctly classifying client plus their mean pairwise Spearman rank
// correlation.
type Figure9Result struct {
	ProbeLabel   int
	Clients      []int
	Attributions [][]float64
	MeanSpearman float64
	HeatmapASCII string
}

// Figure9 trains FedClassAvg, picks the test example correctly classified
// by the most clients, and compares the layer-conductance rank scores of
// the classifier input units across those clients.
func Figure9(name DatasetName, s Scale) (*Figure9Result, error) {
	build, ds, err := NewFleetBuilder(name, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		return nil, err
	}
	clients := build.fleet(s.Clients)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: s.Rounds, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	algo, err := NewAlgorithm(MethodProposed, name, s)
	if err != nil {
		return nil, err
	}
	if _, err := sim.Run(algo); err != nil {
		return nil, err
	}
	// Probe candidates: every client's first few test examples, evaluated
	// by all clients; keep the one with most correct classifications.
	type probe struct {
		x       []float64
		label   int
		correct []int
	}
	var best probe
	for _, owner := range clients {
		limit := 4
		if limit > len(owner.Test) {
			limit = len(owner.Test)
		}
		for _, ex := range owner.Test[:limit] {
			var correct []int
			for _, c := range clients {
				x := tensor.FromSlice(append([]float64(nil), ex.X...), 1, ds.C, ds.H, ds.W)
				_, logits := c.Model.Forward(x, false)
				if logits.ArgMaxRow(0) == ex.Y {
					correct = append(correct, c.ID)
				}
			}
			if len(correct) > len(best.correct) {
				best = probe{x: ex.X, label: ex.Y, correct: correct}
			}
		}
	}
	if len(best.correct) < 2 {
		return nil, fmt.Errorf("figure9: no probe classified correctly by ≥2 clients")
	}
	res := &Figure9Result{ProbeLabel: best.label, Clients: best.correct}
	for _, id := range best.correct {
		x := tensor.FromSlice(append([]float64(nil), best.x...), 1, ds.C, ds.H, ds.W)
		attr := analysis.Conductance(clients[id].Model, x, best.label)
		res.Attributions = append(res.Attributions, attr)
	}
	res.MeanSpearman = analysis.MeanPairwiseSpearman(res.Attributions)
	res.HeatmapASCII = analysis.RankHeatmap(res.Attributions, 64)
	return res, nil
}
