package baselines

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

func cnn2(int) models.Arch { return models.ArchCNN2 }

// groupFleet is a fleet of six clients at dtype dt with serializable RNGs,
// the same clients on every call. Client 4 keeps three of its ten examples,
// so the group it trains in is ragged: one batch against its partner's two.
func groupFleet(t *testing.T, arch func(int) models.Arch, dt tensor.DType) []*fl.Client {
	t.Helper()
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	parts, err := data.Partition(ds, 6, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, len(parts))
	for i := range clients {
		m := models.New(models.Config{
			Arch: arch(i), InC: ds.C, InH: ds.H, InW: ds.W, FeatDim: 8, NumClasses: ds.NumClasses, Hidden: 12, DType: dt,
		}, xrand.New(int64(i+1)))
		rng, src := xrand.NewRand(int64(i + 50))
		clients[i] = &fl.Client{
			ID: i, Model: m, Train: parts[i].Train, Test: parts[i].Test,
			Aug: data.NewAugmenter(ds.C, ds.H, ds.W), Rng: rng, Src: src,
			Optimizer: opt.NewAdam(0.005),
		}
	}
	clients[4].Train = clients[4].Train[:3]
	return clients
}

// groupMethod is one async algorithm the invariance gate covers, with the
// fleet it runs on.
type groupMethod struct {
	name string
	arch func(int) models.Arch
	algo func() fl.AsyncAlgorithm
}

// groupMethods: FedClassAvg brings the two-view head and the classifier's
// proximal hook (over two epochs), FedProx the all-weights hook, FedProto
// the prototype head, KT-pFL a staged distillation before its supervised
// epoch.
var groupMethods = []groupMethod{
	{"FedClassAvg", het, func() fl.AsyncAlgorithm {
		o := core.DefaultOptions()
		o.LocalEpochs = 2
		return core.New(o)
	}},
	{"FedClassAvg+weight", cnn2, func() fl.AsyncAlgorithm {
		o := core.DefaultOptions()
		o.ShareAllWeights = true
		return core.New(o)
	}},
	{"FedAvg", cnn2, func() fl.AsyncAlgorithm { return NewFedAvg(1) }},
	{"FedProx", mlp, func() fl.AsyncAlgorithm { return NewFedProx(1, 0.1) }},
	{"FedProto", het, func() fl.AsyncAlgorithm { return NewFedProto(1, 1.0) }},
	{"KT-pFL", het, func() fl.AsyncAlgorithm {
		spec := data.SynthFashion(6, 4, 3)
		k := NewKTpFL(1, 2, 12)
		k.SetPublic(data.PublicSplit(spec, 12, 9), spec.C, spec.H, spec.W)
		return k
	}},
	{"Local", het, func() fl.AsyncAlgorithm { return NewLocalOnly(1) }},
}

// localTwin dispatches every client of a fresh fleet under a fresh algorithm
// and launches their local updates as the given id groups, returning the
// updates by client and the fleet.
func localTwin(t *testing.T, arch func(int) models.Arch, newAlgo func() fl.AsyncAlgorithm, dt tensor.DType, groups [][]int) ([]*fl.Update, []*fl.Client) {
	t.Helper()
	clients := groupFleet(t, arch, dt)
	sim := fl.NewSimulation(clients, fl.Config{BatchSize: 8, Seed: 3})
	algo := newAlgo()
	if err := algo.Setup(sim); err != nil {
		t.Fatal(err)
	}
	if err := algo.AsyncSetup(sim, &fl.SchedulerConfig{MixRate: 1}); err != nil {
		t.Fatal(err)
	}
	for id := range clients {
		if k, ok := algo.(*KTpFL); ok {
			target := make([]float64, k.reportLen)
			for j := range target {
				target[j] = float64(len(k.public)) / float64(k.reportLen)
			}
			k.pending[id] = target
		}
		if err := algo.AsyncDispatch(sim, id); err != nil {
			t.Fatal(err)
		}
	}
	byClient := make([]*fl.Update, len(clients))
	for _, ids := range groups {
		us, err := algo.AsyncLocalGroup(sim, ids)
		if err != nil {
			t.Fatal(err)
		}
		if len(us) != len(ids) {
			t.Fatalf("%d updates for %d clients", len(us), len(ids))
		}
		for i, id := range ids {
			if us[i].Client != id {
				t.Fatalf("update %d is client %d's, want %d's", i, us[i].Client, id)
			}
			byClient[id] = us[i]
		}
	}
	return byClient, clients
}

// TestCohortGroupingInvariance is the grouping-invariance gate at the
// algorithm seam: for every method, at every dtype and at 1 and N pool
// workers, AsyncLocalGroup over each same-configuration group of a fleet
// must be bit-identical to launching the same ids as groups of one on a twin
// simulation — every update, every client's parameters, batch-norm buffers,
// optimizer state and RNG position. The heterogeneous fleet forms pairs and
// singletons, the homogeneous one a single group of six; both include a
// ragged member.
func TestCohortGroupingInvariance(t *testing.T) {
	for _, m := range groupMethods {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
			for _, workers := range []int{1, tensor.Workers()} {
				name := fmt.Sprintf("%s/%v/w%d", m.name, dt, workers)
				prev := tensor.SetMaxWorkers(workers)
				probe := groupFleet(t, m.arch, dt)
				sim := fl.NewSimulation(probe, fl.Config{})
				ids := []int{0, 1, 2, 3, 4, 5}
				var grouped, solo [][]int
				for _, pos := range fl.GroupCohort(sim, ids) {
					grp := make([]int, len(pos))
					for i, p := range pos {
						grp[i] = ids[p]
						solo = append(solo, []int{ids[p]})
					}
					grouped = append(grouped, grp)
				}
				if len(grouped) == len(ids) {
					t.Fatalf("%s: no group formed", name)
				}
				gu, gc := localTwin(t, m.arch, m.algo, dt, grouped)
				su, sc := localTwin(t, m.arch, m.algo, dt, solo)
				tensor.SetMaxWorkers(prev)
				for id := range gc {
					compareUpdates(t, fmt.Sprintf("%s client %d", name, id), gu[id], su[id])
					compareClients(t, fmt.Sprintf("%s client %d", name, id), gc[id], sc[id])
				}
			}
		}
	}
}

func compareUpdates(t *testing.T, name string, a, b *fl.Update) {
	t.Helper()
	if a.Client != b.Client || a.UpBytes != b.UpBytes || math.Float64bits(a.Scale) != math.Float64bits(b.Scale) ||
		len(a.Vecs) != len(b.Vecs) || fmt.Sprint(a.Counts) != fmt.Sprint(b.Counts) {
		t.Fatalf("%s: grouped update %+v, solo %+v", name, a, b)
	}
	for i := range a.Vecs {
		sameBits(t, fmt.Sprintf("%s update vec %d", name, i), floats(a.Vecs[i]), floats(b.Vecs[i]))
	}
}

func compareClients(t *testing.T, name string, a, b *fl.Client) {
	t.Helper()
	sameBits(t, name+" params", nn.FlattenParams(a.Model.Params()), nn.FlattenParams(b.Model.Params()))
	sameBits(t, name+" buffers", nn.AppendFlatBuffers(nil, a.Model.Buffers()), nn.AppendFlatBuffers(nil, b.Model.Buffers()))
	if a.Src.State() != b.Src.State() {
		t.Fatalf("%s: RNG at %x grouped, %x solo", name, a.Src.State(), b.Src.State())
	}
	sa, sb := a.Optimizer.(opt.Checkpointable).State(), b.Optimizer.(opt.Checkpointable).State()
	if fmt.Sprint(sa.Ints) != fmt.Sprint(sb.Ints) || len(sa.Vecs) != len(sb.Vecs) {
		t.Fatalf("%s: optimizer counters %v grouped, %v solo", name, sa.Ints, sb.Ints)
	}
	for i := range sa.Vecs {
		sameBits(t, fmt.Sprintf("%s optimizer moment %d", name, i), sa.Vecs[i], sb.Vecs[i])
	}
}

func sameBits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values grouped, %d solo", name, len(a), len(b))
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			t.Fatalf("%s[%d]: %x grouped, %x solo", name, j, math.Float64bits(a[j]), math.Float64bits(b[j]))
		}
	}
}
