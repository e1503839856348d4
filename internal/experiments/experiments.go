// Package experiments maps every table and figure of the paper's evaluation
// to a runnable configuration: it constructs datasets, partitions, client
// fleets and algorithms, and emits the same rows/series the paper reports.
// DESIGN.md carries the experiment index; cmd/tables and cmd/figures are the
// command-line entry points.
package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Scale bundles the knobs that trade fidelity for runtime. The paper runs
// 20–100 clients for hundreds of rounds on 15 GPUs; the default scale keeps
// every experimental variable (heterogeneity, skew, methods) while fitting
// a single CPU.
type Scale struct {
	Clients       int
	LargeClients  int // the paper's 100-client setting, scaled
	Rounds        int
	TrainPerClass int
	TestPerClass  int
	FeatDim       int
	BatchSize     int
	PublicSize    int // KT-pFL public dataset size
	Seed          int64
	// DType is the element type client models train in. The zero value is
	// float64 (the golden reference path); tensor.F32 runs the same seeds on
	// the SIMD-wide float32 fast path.
	DType tensor.DType
}

// Small is the default scale used by cmd/tables, examples and EXPERIMENTS.md.
func Small() Scale {
	return Scale{
		Clients:       8,
		LargeClients:  20,
		Rounds:        40,
		TrainPerClass: 24,
		TestPerClass:  30,
		FeatDim:       32,
		BatchSize:     16,
		PublicSize:    48,
		Seed:          1,
	}
}

// Tiny is the scale used by unit tests and benchmarks.
func Tiny() Scale {
	return Scale{
		Clients:       4,
		LargeClients:  6,
		Rounds:        3,
		TrainPerClass: 8,
		TestPerClass:  4,
		FeatDim:       16,
		BatchSize:     8,
		PublicSize:    16,
		Seed:          1,
	}
}

// DatasetName selects one of the three benchmark stand-ins.
type DatasetName string

// The benchmark datasets.
const (
	CIFAR10 DatasetName = "cifar10"
	Fashion DatasetName = "fashion"
	EMNIST  DatasetName = "emnist"
)

// AllDatasets lists the benchmarks in the paper's column order.
var AllDatasets = []DatasetName{CIFAR10, Fashion, EMNIST}

// ParseDataset validates a flag value against the known benchmarks, so bad
// user input fails as a usage error instead of panicking inside Spec.
func ParseDataset(s string) (DatasetName, error) {
	switch DatasetName(s) {
	case CIFAR10, Fashion, EMNIST:
		return DatasetName(s), nil
	case "":
		return Fashion, nil
	}
	return "", fmt.Errorf("experiments: unknown dataset %q (want cifar10 | fashion | emnist)", s)
}

// ScaleFromEnv returns def unless the REPRO_SCALE environment variable
// overrides it ("tiny" | "small"); example binaries honour it so smoke
// tests can run them at CI scale.
func ScaleFromEnv(def Scale) Scale {
	switch os.Getenv("REPRO_SCALE") {
	case "tiny":
		return Tiny()
	case "small":
		return Small()
	}
	return def
}

// Spec returns the generator spec for a dataset at the given scale.
func Spec(name DatasetName, s Scale) data.Spec {
	switch name {
	case CIFAR10:
		return data.SynthCIFAR(s.TrainPerClass, s.TestPerClass, s.Seed)
	case Fashion:
		return data.SynthFashion(s.TrainPerClass, s.TestPerClass, s.Seed)
	case EMNIST:
		return data.SynthEMNIST(s.TrainPerClass, s.TestPerClass, s.Seed)
	default:
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
}

// Hyperparams is the Table 1 record: the paper's values next to the scaled
// values this reproduction uses.
type Hyperparams struct {
	Dataset     DatasetName
	PaperLR     float64
	PaperBatch  int
	PaperRho    float64
	PaperEpochs int
	LR          float64 // scaled (Adam) learning rate used here
	Batch       int
	Rho         float64
	Epochs      int
}

// HyperparamsFor returns the per-dataset hyperparameters (paper Table 1,
// plus our scaled equivalents selected on the synthetic stand-ins).
func HyperparamsFor(name DatasetName, s Scale) Hyperparams {
	h := Hyperparams{Dataset: name, PaperBatch: 64, PaperEpochs: 1, Batch: s.BatchSize, Epochs: 1}
	switch name {
	case CIFAR10:
		h.PaperLR, h.PaperRho = 0.0001, 0.1
		h.LR, h.Rho = 0.002, 0.1
	case Fashion:
		h.PaperLR, h.PaperRho = 0.0006, 0.4662
		h.LR, h.Rho = 0.002, 0.4662
	case EMNIST:
		h.PaperLR, h.PaperRho = 0.0005, 0.1
		h.LR, h.Rho = 0.002, 0.1
	}
	return h
}

// ClientBuilder constructs one client of a fleet by id. Every client's
// data split, model initialization and RNG streams depend only on the
// fleet configuration and the id, so one builder serves every engine: an
// eager fleet is build(0..k-1), a lazy store rebuilds whichever client it
// needs, and a fedclient process builds exactly its own client without
// materializing anyone else's model.
type ClientBuilder func(i int) *fl.Client

// fleet materializes clients 0..k-1 afresh. Every algorithm in a comparison
// consumes its own fleet, so methods start from the same weights and data.
func (build ClientBuilder) fleet(k int) []*fl.Client {
	clients := make([]*fl.Client, k)
	for i := range clients {
		clients[i] = build(i)
	}
	return clients
}

// FleetNames lists the -fleet flag values NewFleetBuilder accepts.
const FleetNames = "heterogeneous | homogeneous | proto"

// NewFleetBuilder returns the per-id builder of a named fleet. Each name is
// a rotation (NewRotationBuilder): heterogeneous is the Table 2 setting,
// the four mini architectures equally distributed; homogeneous is Table 3's
// MiniResNet; proto is FedProto's milder heterogeneity, CNN2 at per-client
// widths. Every client gets a personalized non-iid split, its own RNGs and
// an Adam optimizer.
func NewFleetBuilder(name DatasetName, kind data.PartitionKind, fleet string, k int, s Scale) (ClientBuilder, *data.Dataset, error) {
	arches, err := fleetRotation(fleet)
	if err != nil {
		return nil, nil, err
	}
	return NewRotationBuilder(name, kind, k, s, arches, nil, false)
}

// NewLazyFleetBuilder is NewFleetBuilder for virtual fleets, with each data
// split drawn on demand (NewRotationBuilder with lazy set).
func NewLazyFleetBuilder(name DatasetName, kind data.PartitionKind, fleet string, k int, s Scale) (ClientBuilder, *data.Dataset, error) {
	arches, err := fleetRotation(fleet)
	if err != nil {
		return nil, nil, err
	}
	return NewRotationBuilder(name, kind, k, s, arches, nil, true)
}

// KnownFleet reports whether fleet is one of FleetNames.
func KnownFleet(fleet string) bool {
	_, err := fleetRotation(fleet)
	return err == nil
}

func fleetRotation(fleet string) ([]models.Arch, error) {
	switch fleet {
	case "heterogeneous", "":
		return models.HeterogeneousSet, nil
	case "homogeneous":
		return []models.Arch{models.ArchResNet}, nil
	case "proto":
		return []models.Arch{models.ArchCNN2}, nil
	}
	return nil, fmt.Errorf("experiments: unknown fleet %q (want %s)", fleet, FleetNames)
}

// NewHeterogeneousFleet is the eager Table 2 fleet as a factory: every call
// materializes k clients of NewFleetBuilder's heterogeneous fleet afresh.
func NewHeterogeneousFleet(name DatasetName, kind data.PartitionKind, k int, s Scale) (func() []*fl.Client, *data.Dataset, error) {
	return NewRotationFleet(name, kind, k, s, models.HeterogeneousSet, nil)
}

// NewRotationFleet is NewRotationBuilder's eager partition as a factory:
// every call materializes clients 0..k-1 afresh.
func NewRotationFleet(name DatasetName, kind data.PartitionKind, k int, s Scale, arches []models.Arch, widths []int) (func() []*fl.Client, *data.Dataset, error) {
	build, ds, err := NewRotationBuilder(name, kind, k, s, arches, widths, false)
	if err != nil {
		return nil, nil, err
	}
	return func() []*fl.Client { return build.fleet(k) }, ds, nil
}

// ParseArchRotation parses a comma-separated architecture rotation like
// "resnet,shufflenet,googlenet,alexnet" into the per-client assignment list.
func ParseArchRotation(s string) ([]models.Arch, error) {
	var arches []models.Arch
	for _, name := range strings.Split(s, ",") {
		a, err := models.ParseArch(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		arches = append(arches, a)
	}
	return arches, nil
}

// ParseWidthRotation parses a comma-separated width-multiplier rotation like
// "1,2,3" (every entry must be >= 1).
func ParseWidthRotation(s string) ([]int, error) {
	var widths []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("experiments: width multiplier %q must be an integer >= 1", f)
		}
		widths = append(widths, w)
	}
	return widths, nil
}

// NewRotationBuilder returns the per-id builder of a scripted fleet: client
// i runs arches[i % len(arches)] at width multiplier widths[i % len(widths)]
// (widths empty = the architecture's default: 1, or 1 + i%3 for CNN2). It
// is the programmatic form of fedsim's -arch/-width flags, and every named
// fleet is one. Everything about client i but its data split — architecture,
// width, init seed, RNG streams, optimizer — is a pure function of the
// fleet configuration and i. The split is the eager data.Partition unless
// lazy is set; then data.LazyPartitioner derives client i's examples on
// demand as a pure function of (seed, i) — the only construction whose
// memory stays O(dataset) for a million clients, and a different (equally
// valid) sample of the same mixture, so the two are separate experiment
// configurations (DESIGN.md §10).
func NewRotationBuilder(name DatasetName, kind data.PartitionKind, k int, s Scale, arches []models.Arch, widths []int, lazy bool) (ClientBuilder, *data.Dataset, error) {
	if len(arches) == 0 {
		return nil, nil, fmt.Errorf("experiments: rotation fleet needs at least one architecture")
	}
	ds := data.Generate(Spec(name, s))
	opts := data.PartitionOptions{Kind: kind, Alpha: 0.5, Seed: s.Seed + 17}
	var split func(int) data.ClientData
	if lazy {
		lp, err := data.NewLazyPartitioner(ds, k, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %w", err)
		}
		split = lp.Client
	} else {
		parts, err := data.Partition(ds, k, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %w", err)
		}
		split = func(i int) data.ClientData { return parts[i] }
	}
	h := HyperparamsFor(name, s)
	return func(i int) *fl.Client {
		part := split(i)
		arch := arches[i%len(arches)]
		cfg := models.Config{
			Arch: arch, InC: ds.C, InH: ds.H, InW: ds.W,
			FeatDim: s.FeatDim, NumClasses: ds.NumClasses,
			DType: s.DType,
		}
		if arch == models.ArchCNN2 {
			cfg.Width = 1 + i%3 // per-client channel heterogeneity
		}
		if len(widths) > 0 {
			cfg.Width = widths[i%len(widths)]
		}
		seed := s.Seed*1000003 + int64(i)*7919
		// Both the training stream (augmentation, batch shuffling) and
		// the model-init stream come from serializable xrand sources, so
		// every random draw in a fleet's life is snapshot-reproducible.
		rng, src := xrand.NewRand(seed ^ 0x5deece66d)
		return &fl.Client{
			ID:        i,
			Model:     models.New(cfg, xrand.New(seed)),
			Train:     part.Train,
			Test:      part.Test,
			Aug:       data.NewAugmenter(ds.C, ds.H, ds.W),
			Rng:       rng,
			Src:       src,
			Optimizer: opt.NewAdam(h.LR),
		}
	}, ds, nil
}

// Method names used across tables.
const (
	MethodBaseline       = "Baseline"
	MethodFedProto       = "FedProto"
	MethodKTpFL          = "KT-pFL"
	MethodKTpFLWeight    = "KT-pFL+weight"
	MethodFedAvg         = "FedAvg"
	MethodFedProx        = "FedProx"
	MethodProposed       = "Proposed"
	MethodProposedWeight = "Proposed+weight"
	MethodAblationCA     = "CA"
	MethodAblationCAPR   = "CA+PR"
	MethodAblationCACL   = "CA+CL"
	MethodAblationCAPRCL = "CA+PR+CL"
)

// NewAlgorithm instantiates a named method for a dataset at a scale.
// KT-pFL variants that need public data receive it here.
func NewAlgorithm(method string, name DatasetName, s Scale) (fl.Algorithm, error) {
	h := HyperparamsFor(name, s)
	switch method {
	case MethodBaseline:
		return baselines.NewLocalOnly(1), nil
	case MethodFedProto:
		return baselines.NewFedProto(1, 1.0), nil
	case MethodKTpFL:
		spec := Spec(name, s)
		k := baselines.NewKTpFL(1, 3, s.PublicSize)
		public := data.PublicSplit(spec, s.PublicSize, s.Seed+101)
		k.SetPublic(public, spec.C, spec.H, spec.W)
		return k, nil
	case MethodKTpFLWeight:
		return baselines.NewKTpFLWeights(1), nil
	case MethodFedAvg:
		return baselines.NewFedAvg(1), nil
	case MethodFedProx:
		return baselines.NewFedProx(1, 0.1), nil
	case MethodProposed:
		o := core.DefaultOptions()
		o.Rho = h.Rho
		return core.New(o), nil
	case MethodProposedWeight:
		o := core.DefaultOptions()
		o.Rho = h.Rho
		o.ShareAllWeights = true
		return core.New(o), nil
	case MethodAblationCA:
		return core.New(core.Options{LocalEpochs: 1}), nil
	case MethodAblationCAPR:
		return core.New(core.Options{LocalEpochs: 1, UseProximal: true, Rho: h.Rho}), nil
	case MethodAblationCACL:
		return core.New(core.Options{LocalEpochs: 1, UseContrastive: true}), nil
	case MethodAblationCAPRCL:
		o := core.DefaultOptions()
		o.Rho = h.Rho
		return core.New(o), nil
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", method)
	}
}

// Run executes one method on a fresh eager fleet of k clients under the
// sync scheduler and returns its metrics history.
func Run(method string, name DatasetName, build ClientBuilder, k int, s Scale, sampleRate float64) ([]fl.RoundMetrics, error) {
	return RunScheduled(method, name, build, k, s, sampleRate, 0, 0, fl.SchedulerConfig{}, comm.Spec{Value: comm.F64})
}

// RunScheduled executes one method on a fresh fleet of k clients under an
// arbitrary scheduler and wire framing spec. With resident 0 the fleet is
// eager: build(0..k-1), every client resident (fl.NewSimulation).
// Otherwise it is virtual: clients materialize on dispatch through build
// and at most resident of them stay in memory, so memory is O(resident +
// cohort), not O(k) (fl.NewLazySimulation). evalSample caps how many
// clients each evaluation touches (0 = every client, or the cohort size on
// a virtual fleet). Resident and evalSample 0, the zero SchedulerConfig and
// a plain dense f64 spec reproduce Run exactly.
func RunScheduled(method string, name DatasetName, build ClientBuilder, k int, s Scale, sampleRate float64, resident, evalSample int, sched fl.SchedulerConfig, spec comm.Spec) ([]fl.RoundMetrics, error) {
	algo, err := NewAlgorithm(method, name, s)
	if err != nil {
		return nil, err
	}
	cfg := runConfig(s, sampleRate, spec)
	cfg.EvalSample = evalSample
	var sim *fl.Simulation
	if resident > 0 {
		sim = fl.NewLazySimulation(k, build, resident, cfg)
	} else {
		sim = fl.NewSimulation(build.fleet(k), cfg)
	}
	return sim.RunScheduled(algo, sched)
}

// runConfig is the one place a Scale becomes an fl.Config: the simulation
// seed is s.Seed+7, and NodeConfigFor embeds the same Config so a node
// federation samples exactly the cohorts the in-process run samples.
func runConfig(s Scale, sampleRate float64, spec comm.Spec) fl.Config {
	return fl.Config{
		Rounds:     s.Rounds,
		SampleRate: sampleRate,
		BatchSize:  s.BatchSize,
		Seed:       s.Seed + 7,
		Codec:      spec.Value,
		TopK:       spec.Frac,
		Delta:      spec.Delta,
	}
}

// StragglerCosts builds a per-client virtual cost vector where the first
// slow clients take factor× as long per local update — the heterogeneous
// straggler fleets of the scheduler benchmarks.
func StragglerCosts(clients, slow int, factor float64) []float64 {
	costs := make([]float64, clients)
	for i := range costs {
		costs[i] = 1
		if i < slow {
			costs[i] = factor
		}
	}
	return costs
}

// Final extracts the last evaluation point of a history.
func Final(hist []fl.RoundMetrics) fl.RoundMetrics {
	if len(hist) == 0 {
		return fl.RoundMetrics{}
	}
	return hist[len(hist)-1]
}
