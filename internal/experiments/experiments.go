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

// ClientFactory produces a fresh, identically initialized client fleet.
// Every algorithm in a comparison consumes its own fleet so methods start
// from the same weights and data.
type ClientFactory func() []*fl.Client

// ClientBuilder constructs one client of a fleet by id. Every client's
// data split, model initialization and RNG streams depend only on the
// fleet configuration and the id, so a fedclient process can build exactly
// its own client — identical to the one the in-process factory would have
// produced at the same index — without materializing anyone else's model.
type ClientBuilder func(i int) *fl.Client

// FleetNames lists the -fleet flag values NewFleetBuilder accepts.
const FleetNames = "heterogeneous | homogeneous | proto"

// NewFleetBuilder returns a single-client builder for one of the named
// fleet kinds — the node-mode form of NewHeterogeneousFleet and friends.
func NewFleetBuilder(name DatasetName, kind data.PartitionKind, fleet string, k int, s Scale) (ClientBuilder, *data.Dataset, error) {
	pickArch, err := pickArchFor(fleet)
	if err != nil {
		return nil, nil, err
	}
	return newFleetBuilder(name, kind, k, s, pickArch, nil)
}

// NewLazyFleetBuilder is NewFleetBuilder for virtual fleets: the data split
// comes from data.LazyPartitioner, so client i's examples are derived on
// demand as a pure function of (seed, i) instead of partitioned eagerly —
// the only construction whose memory stays O(dataset) for a million
// clients. Model init, RNG streams and optimizers follow the same per-id
// formulas as the eager builder.
func NewLazyFleetBuilder(name DatasetName, kind data.PartitionKind, fleet string, k int, s Scale) (ClientBuilder, *data.Dataset, error) {
	pickArch, err := pickArchFor(fleet)
	if err != nil {
		return nil, nil, err
	}
	ds := data.Generate(Spec(name, s))
	lp, err := data.NewLazyPartitioner(ds, k, data.PartitionOptions{Kind: kind, Alpha: 0.5, Seed: s.Seed + 17})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	return buildClient(name, ds, s, pickArch, nil, lp.Client), ds, nil
}

// KnownFleet reports whether fleet is one of FleetNames.
func KnownFleet(fleet string) bool {
	_, err := pickArchFor(fleet)
	return err == nil
}

func pickArchFor(fleet string) (func(int) models.Arch, error) {
	switch fleet {
	case "heterogeneous", "":
		return func(i int) models.Arch { return models.HeterogeneousSet[i%len(models.HeterogeneousSet)] }, nil
	case "homogeneous":
		return func(int) models.Arch { return models.ArchResNet }, nil
	case "proto":
		return func(int) models.Arch { return models.ArchCNN2 }, nil
	}
	return nil, fmt.Errorf("experiments: unknown fleet %q (want %s)", fleet, FleetNames)
}

// NewHeterogeneousFleet builds the Table 2 setting: k clients over the
// four mini architectures (equally distributed), personalized non-iid
// splits, per-client RNGs and Adam optimizers.
func NewHeterogeneousFleet(name DatasetName, kind data.PartitionKind, k int, s Scale) (ClientFactory, *data.Dataset, error) {
	return newFleet(name, kind, k, s, func(i int) models.Arch {
		return models.HeterogeneousSet[i%len(models.HeterogeneousSet)]
	}, nil)
}

// NewHomogeneousFleet builds the Table 3 setting: every client runs
// MiniResNet.
func NewHomogeneousFleet(name DatasetName, kind data.PartitionKind, k int, s Scale) (ClientFactory, *data.Dataset, error) {
	return newFleet(name, kind, k, s, func(int) models.Arch { return models.ArchResNet }, nil)
}

// NewProtoFleet builds the FedProto setting: CNN2 models whose widths vary
// per client (the paper's milder heterogeneity for FedProto).
func NewProtoFleet(name DatasetName, kind data.PartitionKind, k int, s Scale) (ClientFactory, *data.Dataset, error) {
	return newFleet(name, kind, k, s, func(int) models.Arch { return models.ArchCNN2 }, nil)
}

// NewRotationFleet builds a fleet whose composition is scripted instead of
// hardcoded: client i runs arches[i % len(arches)] at width multiplier
// widths[i % len(widths)] (widths nil or empty = the default width). It is
// the programmatic form of fedsim's -arch/-width flags.
func NewRotationFleet(name DatasetName, kind data.PartitionKind, k int, s Scale, arches []models.Arch, widths []int) (ClientFactory, *data.Dataset, error) {
	if len(arches) == 0 {
		return nil, nil, fmt.Errorf("experiments: rotation fleet needs at least one architecture")
	}
	var pickWidth func(int) int
	if len(widths) > 0 {
		pickWidth = func(i int) int { return widths[i%len(widths)] }
	}
	return newFleet(name, kind, k, s, func(i int) models.Arch {
		return arches[i%len(arches)]
	}, pickWidth)
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

func newFleet(name DatasetName, kind data.PartitionKind, k int, s Scale, pickArch func(int) models.Arch, pickWidth func(int) int) (ClientFactory, *data.Dataset, error) {
	build, ds, err := newFleetBuilder(name, kind, k, s, pickArch, pickWidth)
	if err != nil {
		return nil, nil, err
	}
	return build.Factory(k), ds, nil
}

// Factory is the eager form of a builder: every call materializes clients
// 0..k-1 afresh.
func (build ClientBuilder) Factory(k int) ClientFactory {
	return func() []*fl.Client {
		clients := make([]*fl.Client, k)
		for i := range clients {
			clients[i] = build(i)
		}
		return clients
	}
}

// newFleetBuilder is the per-client core of newFleet: everything about
// client i — split, architecture, width, init seed, RNG streams — is a
// pure function of the fleet configuration and i.
func newFleetBuilder(name DatasetName, kind data.PartitionKind, k int, s Scale, pickArch func(int) models.Arch, pickWidth func(int) int) (ClientBuilder, *data.Dataset, error) {
	ds := data.Generate(Spec(name, s))
	parts, err := data.Partition(ds, k, data.PartitionOptions{Kind: kind, Alpha: 0.5, Seed: s.Seed + 17})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	return buildClient(name, ds, s, pickArch, pickWidth, func(i int) data.ClientData { return parts[i] }), ds, nil
}

// buildClient is the shared per-client core of the eager and lazy fleet
// builders: everything about client i except its data split — architecture,
// width, init seed, RNG streams, optimizer — is a pure function of the
// fleet configuration and i; the split function supplies the rest.
func buildClient(name DatasetName, ds *data.Dataset, s Scale, pickArch func(int) models.Arch, pickWidth func(int) int, split func(int) data.ClientData) ClientBuilder {
	h := HyperparamsFor(name, s)
	return func(i int) *fl.Client {
		part := split(i)
		arch := pickArch(i)
		cfg := models.Config{
			Arch: arch, InC: ds.C, InH: ds.H, InW: ds.W,
			FeatDim: s.FeatDim, NumClasses: ds.NumClasses,
			DType: s.DType,
		}
		if arch == models.ArchCNN2 {
			cfg.Width = 1 + i%3 // per-client channel heterogeneity
		}
		if pickWidth != nil {
			cfg.Width = pickWidth(i)
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
	}
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

// Run executes one method on a fresh fleet under the sync scheduler and
// returns its metrics history.
func Run(method string, name DatasetName, factory ClientFactory, s Scale, sampleRate float64) ([]fl.RoundMetrics, error) {
	return RunScheduled(method, name, factory, s, sampleRate, fl.SchedulerConfig{}, comm.Spec{Value: comm.F64})
}

// RunScheduled executes one method on a fresh fleet under an arbitrary
// scheduler and wire framing spec. The zero SchedulerConfig and a plain
// dense f64 spec reproduce Run exactly.
func RunScheduled(method string, name DatasetName, factory ClientFactory, s Scale, sampleRate float64, sched fl.SchedulerConfig, spec comm.Spec) ([]fl.RoundMetrics, error) {
	algo, err := NewAlgorithm(method, name, s)
	if err != nil {
		return nil, err
	}
	return fl.NewSimulation(factory(), runConfig(s, sampleRate, spec)).RunScheduled(algo, sched)
}

// runConfig is the one place a Scale becomes an fl.Config: the simulation
// seed is s.Seed+7, and NodeConfigFor copies it so a node federation
// samples exactly the cohorts the in-process run samples.
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

// RunLazyScheduled executes one method over a virtual fleet of k clients:
// clients materialize on dispatch through build, and at most resident of
// them stay in memory (0 = unbounded); the rest spill to compact state
// buffers. evalSample caps how many clients each evaluation touches
// (0 = the cohort-size default). Memory is O(resident + cohort), not O(k).
func RunLazyScheduled(method string, name DatasetName, build ClientBuilder, k int, s Scale, sampleRate float64, resident, evalSample int, sched fl.SchedulerConfig, spec comm.Spec) ([]fl.RoundMetrics, error) {
	algo, err := NewAlgorithm(method, name, s)
	if err != nil {
		return nil, err
	}
	cfg := runConfig(s, sampleRate, spec)
	cfg.EvalSample = evalSample
	return fl.NewLazySimulation(k, build, resident, cfg).RunScheduled(algo, sched)
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
