// Package fl is the federated-learning simulation kernel: clients with
// personal models, data and optimizers; a round loop with client sampling,
// parallel local updates and per-round evaluation; and the metrics history
// (average personalized test accuracy vs cumulative local epochs) that the
// paper's learning-curve figures plot.
package fl

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Client is one federated participant: a personal model, a personalized
// data split, an augmenter producing contrastive views, and a private,
// deterministically seeded RNG so parallel execution stays reproducible.
type Client struct {
	ID        int
	Model     *models.SplitModel
	Train     []data.Example
	Test      []data.Example
	Aug       *data.Augmenter
	Rng       *rand.Rand
	Optimizer opt.Optimizer
	// Src, when non-nil, is the serializable source behind Rng (build the
	// pair with xrand.NewRand). Checkpointing requires it: a client's
	// training stream can only be frozen and resumed through Src.
	Src *xrand.Source

	// upload is the flat vector FlatUpload fills, exact-length storage from
	// the tensor pool.
	upload []float64
	// train is what the client's local steps keep between calls.
	train trainScratch
}

// FlatUpload copies params into the one vector the client keeps for its
// upload — a copy, since the uplink codec rounds in place — and returns it:
// a method that uploads weights flattens here every round instead of
// allocating a model-sized vector. The result is valid until the next
// FlatUpload on the same client, or until the client store evicts it.
func (c *Client) FlatUpload(params []*nn.Param) []float64 {
	if n := nn.NumParams(params); cap(c.upload) < n {
		tensor.PutStorage(c.upload)
		c.upload = tensor.GetStorage[float64](n)[:0]
	}
	c.upload = nn.AppendFlatParams(c.upload[:0], params)
	return c.upload
}

// InputGeometry returns the client's input tensor dimensions.
func (c *Client) InputGeometry() (ch, h, w int) {
	cfg := c.Model.Cfg
	return cfg.InC, cfg.InH, cfg.InW
}

// DType reports the client model's element type (F64 without a model).
func (c *Client) DType() tensor.DType {
	if c.Model == nil {
		return tensor.F64
	}
	return c.Model.DType()
}

// AugmentedBatch packs a batch into a new model-dtype tensor, applying one
// augmentation per example when the client has an augmenter.
func (c *Client) AugmentedBatch(b []data.Example) (x *tensor.Tensor, y []int) {
	ch, h, w := c.InputGeometry()
	x, y = tensor.NewOf(c.DType(), len(b), ch, h, w), make([]int, len(b))
	c.packViews(x, b, 1, y)
	return x, y
}

// packViews writes the given number of augmented views of each example of b
// into x — view v of example i at row v·len(b)+i — and the labels into y.
// Each example draws its views from the client's Rng in order; without an
// augmenter every view is the example itself. Augmentation runs in float64
// bookkeeping (it is per-pixel arithmetic on the stored examples) and writes
// each pixel straight into x, narrowed to the model dtype at the model
// boundary.
func (c *Client) packViews(x *tensor.Tensor, b []data.Example, views int, y []int) {
	ch, h, w := c.InputGeometry()
	dim := ch * h * w
	for i, ex := range b {
		for v := 0; v < views; v++ {
			off := (v*len(b) + i) * dim
			if c.Aug != nil {
				c.Aug.WriteAt(x, off, ex.X, c.Rng)
			} else {
				x.WriteFloat64sAt(off, ex.X)
			}
		}
		y[i] = ex.Y
	}
}

// EvalAccuracy computes test accuracy with the model in evaluation mode,
// batching the test set into model-dtype tensors leased from the model's
// arena to bound memory. It is one pass: on return the arena is back on the
// free list.
func (c *Client) EvalAccuracy() float64 {
	if len(c.Test) == 0 {
		return 0
	}
	ch, h, w := c.InputGeometry()
	dim := ch * h * w
	const evalBatch = 64
	correct := 0
	for lo := 0; lo < len(c.Test); lo += evalBatch {
		b := c.Test[lo:min(lo+evalBatch, len(c.Test))]
		x := nn.ArenaOf(c.Model.Extractor).Lease(c.DType(), len(b), ch, h, w)
		for i, ex := range b {
			x.WriteFloat64sAt(i*dim, ex.X)
		}
		_, logits := c.Model.Forward(x, false)
		for i, ex := range b {
			if logits.ArgMaxRow(i) == ex.Y {
				correct++
			}
		}
		tensor.PutTensor(x)
	}
	c.Model.ReleaseWorkspaces()
	return float64(correct) / float64(len(c.Test))
}

// TrainEpochCE trains the client alone for one plain cross-entropy epoch
// (TrainEpochs with the zero Objective) and returns its average loss.
func (c *Client) TrainEpochCE(batchSize int) float64 {
	return TrainEpochs([]*Client{c}, batchSize, 1, Objective{})[0]
}

// Config controls a federation run: a Simulation's, and a ServerNode's
// through NodeConfig, which adds what only a server node has.
type Config struct {
	Rounds     int
	SampleRate float64 // fraction of clients participating per round
	BatchSize  int
	Seed       int64 // cohort sampling; the same seed samples the same cohorts in both modes
	// EvalEvery evaluates accuracy every n rounds (default 1).
	EvalEvery int
	// EvalSample, when positive, evaluates a fresh cohort of that many
	// clients per evaluation point instead of sweeping the whole fleet —
	// the only affordable option for virtual fleets where N is far larger
	// than the per-round cohort. The sample is drawn from a dedicated RNG
	// stream, so enabling it never perturbs cohort sampling or failure
	// injection, and a node federation samples the clients the in-process
	// run at its seed samples. 0 sweeps every client, byte-identical to
	// previous releases; NewLazySimulation turns it into the cohort size.
	EvalSample int
	// Codec selects the wire codec payloads are accounted (and, through
	// Uplink, quantized) with. The zero value is lossless float64.
	Codec comm.Codec
	// TopK, in (0, 1), sparsifies weight uploads to the ceil(TopK·n)
	// largest-|v| elements per vector, exactly as the wire's TOPK frames
	// would: Uplink zeroes the dropped elements and books the sparse frame
	// bytes. Applies only to algorithms whose uploads tolerate loss
	// (LossyUploads); structural payloads stay dense and exact. 0 keeps
	// uploads dense.
	TopK float64
	// Delta frames weight uploads as residuals against the client's
	// previous upload of the same length, modeling the wire's DELTA frames
	// over one stable connection per client.
	Delta bool
}

// WireSpec is the upload framing spec the config describes — what a node
// federation negotiates in its transport handshake (transport.Options.Spec).
func (c Config) WireSpec() comm.Spec { return comm.NewSpec(c.Codec, c.TopK, c.Delta) }

// withDefaults fills the zero fields a run needs: one round, the whole
// fleet per round, batches of 32, an evaluation every round.
func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		c.SampleRate = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	return c
}

// RoundMetrics is one evaluation point.
type RoundMetrics struct {
	Round       int
	LocalEpochs int // cumulative local epochs (the x-axis of Figures 4–7)
	MeanAcc     float64
	StdAcc      float64
	PerClient   []float64
	// EvalIDs, when non-nil, names the clients PerClient refers to
	// (sampled evaluation, Config.EvalSample): PerClient[j] is client
	// EvalIDs[j]'s accuracy, in process and in node mode alike. Nil means
	// PerClient[i] is client i's accuracy — the full-sweep layout.
	EvalIDs   []int
	UpBytes   int64
	DownBytes int64
	// SimTime is the cumulative time at this evaluation point: virtual time
	// (in client-update cost units) in process, wall-clock serving seconds
	// in node mode, where a resumed server continues the restored history's
	// clock. Round throughput comparisons divide Round by it.
	SimTime float64
}

// Algorithm is a federated training algorithm. Setup runs once before the
// first round; Round performs one communication round over the given
// participant client IDs.
type Algorithm interface {
	Name() string
	Setup(sim *Simulation) error
	Round(sim *Simulation, round int, participants []int) error
	// EpochsPerRound reports how many local epochs each participant runs
	// per round, used for the cumulative-epoch x-axis (KT-pFL uses 20).
	EpochsPerRound() int
}

// Simulation owns the fleet and the round record (rounds.go): Cfg, the
// traffic Ledger, the sampling stream Rng and the metrics History.
// The fleet is one ClientStore over the ids [0, n), reached through
// Client/NumClients: NewSimulation holds every client resident from
// construction, NewLazySimulation materializes clients on demand and spills
// evicted state to a segment file. The two constructors differ only in the
// policies they fix as values below — Setup's probe set, the default virtual
// node count and the default evaluation sample — so nothing after
// construction asks which one ran.
type Simulation struct {
	rounds

	store *ClientStore
	// probe is how many leading ids SetupJoins reads, and workers the
	// default SchedulerConfig.Workers.
	probe, workers int
	// up frames the simulated uplink (Config.Codec/TopK/Delta): one
	// wireCodec stands in for the fleet's connections, with the client id
	// as the vector slot, so delta bases exist only for clients that have
	// uploaded. The engine rebuilds it from the algorithm before the first
	// round; until then uploads are plain dense. upMu guards its basis map
	// against parallel client loops.
	up   *wireCodec
	upMu sync.Mutex
}

// NewSimulation builds a simulation over the given clients, every one
// resident from construction and never evicted: a store whose budget is
// unbounded. Client i must have ID i. Setup probes every client, the
// scheduler defaults to one virtual node per client (the paper's MPI
// layout), and an unset Cfg.EvalSample sweeps the whole fleet.
func NewSimulation(clients []*Client, cfg Config) *Simulation {
	st := NewClientStore(len(clients), func(id int) *Client { return clients[id] }, 0)
	for i, c := range clients {
		if c.ID != i {
			panic(fmt.Sprintf("fl: client %d sits at fleet index %d; a fleet's ids are its indices", c.ID, i))
		}
		st.Get(i)
	}
	s := newSimulation(cfg, st)
	s.probe, s.workers = len(clients), len(clients)
	return s
}

// NewLazySimulation builds a simulation over a virtual fleet of n clients
// materialized on demand by build (which must construct client i as a pure
// function of i). At most resident clients stay materialized; beyond that
// the least-recently-used client's mutable state spills to the store's
// segment file and is restored bit-identically on re-dispatch, so any
// finite budget produces the same metrics and trace as budget ∞.
// resident <= 0 means unbounded. Everything else stays O(cohort): Setup
// probes the first min(n, 64) clients, the scheduler defaults to one
// virtual node per cohort member, and an unset Cfg.EvalSample evaluates a
// cohort-sized sample.
func NewLazySimulation(n int, build func(int) *Client, resident int, cfg Config) *Simulation {
	s := newSimulation(cfg, NewClientStore(n, build, resident))
	cohort, _ := cohortPolicy(n, s.Cfg.SampleRate, SchedSync, 0)
	s.probe, s.workers = min(n, setupProbeWidth), cohort
	if s.Cfg.EvalSample <= 0 {
		s.Cfg.EvalSample = cohort
	}
	return s
}

func newSimulation(cfg Config, st *ClientStore) *Simulation {
	return &Simulation{rounds: newRounds(cfg), store: st, up: plainWire(cfg.Codec)}
}

// NumClients returns the fleet size without materializing anyone.
func (s *Simulation) NumClients() int { return s.store.Len() }

// Client returns client id, materializing (and restoring spilled state
// into) it if it is not resident. The returned client stays resident at
// least until the next eviction safe point.
func (s *Simulation) Client(id int) *Client { return s.store.Get(id) }

// setupProbeWidth caps how many clients Setup probes in a lazy fleet.
const setupProbeWidth = 64

// SetupJoins returns the joins of the clients an in-process Setup builds
// server state from, each built as a ClientNode builds its own: Setup hands
// them to the method's WireSetup, so in process and node mode start from
// one function. An eager simulation probes every client — the historical
// behavior. A lazy one probes a fixed prefix (min(n, 64)): fleet builders
// construct clients from a small arch rotation, so a prefix witnesses every
// architecture, and a budget-independent probe set keeps the determinism
// contract (Setup must not depend on what happens to be resident).
func (s *Simulation) SetupJoins(algo WireAlgorithm) ([]WireJoin, error) {
	joins := make([]WireJoin, s.probe)
	for id := range joins {
		j, err := newJoin(algo, s.Client(id))
		if err != nil {
			return nil, err
		}
		joins[id] = j
	}
	return joins, nil
}

// Run executes the algorithm for the configured number of rounds under the
// sync (lock-step) scheduler and returns the metrics history. Use
// RunScheduled to pick a different scheduler.
func (s *Simulation) Run(algo Algorithm) ([]RoundMetrics, error) {
	return s.RunScheduled(algo, SchedulerConfig{Kind: SchedSync})
}

// Uplink books a client → server payload on the traffic ledger and passes
// it through the configured wire framing's loss in place — codec
// quantization, top-k sparsification and delta residuals affect aggregation
// exactly as the wire would, and the booked bytes are exactly the frame the
// wire would carry. It returns v for chaining. Safe to call from parallel
// client loops in sync rounds; AsyncLocalGroup implementations must use
// QuantizeUplink plus Update.UpBytes instead, so the engine books the bytes
// at virtual delivery time.
func (s *Simulation) Uplink(client int, v []float64) []float64 {
	v, bytes := s.QuantizeUplink(client, v)
	s.Ledger.AddUp(bytes)
	return v
}

// QuantizeUplink applies the upload framing's loss to v in place at
// local-compute time and returns the exact frame bytes the engine must book
// at virtual delivery time (Update.UpBytes).
func (s *Simulation) QuantizeUplink(client int, v []float64) ([]float64, int64) {
	s.upMu.Lock()
	ref := s.up.ref(msgUpdate, client, len(v))
	s.upMu.Unlock()
	return v, comm.RoundTripSpec(s.up.specFor(msgUpdate, len(v)), v, ref)
}

// Downlink books a server → client broadcast of n values, dense at the
// configured codec (broadcasts never sparsify or delta-frame).
func (s *Simulation) Downlink(n int) {
	s.Ledger.AddDown(comm.WireSizeAs(s.Cfg.Codec, n))
}

// Quantize passes v through the configured dense codec in place (no ledger
// booking, no sparsification) and returns it for chaining.
func (s *Simulation) Quantize(v []float64) []float64 {
	comm.RoundTripSpec(comm.Spec{Value: s.Cfg.Codec}, v, nil)
	return v
}

// sampleParticipants draws ⌈K·rate⌉ distinct clients.
func (s *Simulation) sampleParticipants() []int {
	return SampleCohort(s.Rng, s.NumClients(), s.Cfg.SampleRate)
}

// SampleCohort draws ⌈k·rate⌉ distinct client ids in ascending order,
// consuming exactly the RNG stream the simulation's schedulers consume. It
// is shared with the node runtime so a ServerNode at seed S samples the
// same cohorts as the in-process sync run at seed S. Sampling is a partial
// Fisher–Yates over the compact id space: O(n) time and memory for an
// n-client cohort, independent of the fleet size k — the property that
// lets million-client fleets sample at cohort cost.
func SampleCohort(rng *rand.Rand, k int, rate float64) []int {
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	n := int(math.Ceil(float64(k) * rate))
	if n > k {
		n = k
	}
	picked := SamplePrefix(rng, k, n)
	sort.Ints(picked)
	return picked
}

// SamplePrefix draws n distinct integers uniformly from [0,k) in the order
// a full Fisher–Yates shuffle would place them in its first n slots, but
// tracking only the displaced entries in a sparse map — O(n) time and
// memory regardless of k. The returned slice is unsorted; it consumes
// exactly n Intn draws from rng.
func SamplePrefix(rng *rand.Rand, k, n int) []int {
	if n > k {
		n = k
	}
	if n <= 0 {
		return []int{}
	}
	disp := make(map[int]int, n)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(k-i)
		vj, ok := disp[j]
		if !ok {
			vj = j
		}
		vi, ok := disp[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		disp[j] = vi
	}
	return out
}

// Evaluate measures every client's personalized test accuracy in parallel
// (or a sampled subset under Config.EvalSample), with no churn exclusion.
func (s *Simulation) Evaluate() RoundMetrics {
	return s.evaluateWith(nil, 0)
}

// evaluateWith is the scheduler-facing evaluation, which reaches clients
// through the store's clean accessor: evaluating a client changes none of
// its state, so it leaves a clean client clean. Clients whose away
// horizon extends past the current virtual time are marked NaN in
// PerClient and excluded from the mean/std, matching the node runtime's
// churn semantics (DESIGN.md §9). A nil away slice means no churn. The
// clients measured are the round record's evaluation sample (evalSample):
// every client, or under Config.EvalSample a fresh sample that EvalIDs
// records.
func (s *Simulation) evaluateWith(away []float64, now float64) RoundMetrics {
	ids := s.evalSample(s.NumClients())
	width := s.NumClients()
	if ids != nil {
		width = len(ids)
	}
	accs := make([]float64, width)
	tensor.Parallel(width, func(i int) {
		id := i
		if ids != nil {
			id = ids[i]
		}
		if away != nil && away[id] > now {
			accs[i] = math.NaN()
			return
		}
		accs[i] = s.store.getClean(id).EvalAccuracy()
	})
	mean, std := MeanStd(accs)
	return RoundMetrics{MeanAcc: mean, StdAcc: std, PerClient: accs, EvalIDs: ids}
}

// MeanStd returns the mean and population standard deviation over the
// non-NaN entries (NaN marks an excluded client — away or churned). All
// entries NaN, or an empty slice, returns (0, 0). On NaN-free input the
// arithmetic is operation-for-operation identical to the historical
// all-entries formula, so clean metric streams stay byte-identical.
func MeanStd(xs []float64) (mean, std float64) {
	n := 0
	for _, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		mean += v
		n++
	}
	if n == 0 {
		return 0, 0
	}
	mean /= float64(n)
	for _, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		d := v - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(n))
}
