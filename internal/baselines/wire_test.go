package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
)

// joinsFor builds the WireJoin table a server node would collect from
// these clients.
func joinsFor(t *testing.T, algo fl.WireAlgorithm, clients []*fl.Client) []fl.WireJoin {
	t.Helper()
	joins := make([]fl.WireJoin, len(clients))
	for i, c := range clients {
		init, err := algo.WireInit(c)
		if err != nil {
			t.Fatal(err)
		}
		joins[i] = fl.WireJoin{
			ID:            c.ID,
			TrainSize:     len(c.Train),
			FeatDim:       c.Model.Cfg.FeatDim,
			NumClasses:    c.Model.Cfg.NumClasses,
			NumParams:     nn.NumParams(c.Model.Params()),
			NumClassifier: nn.NumParams(c.Model.ClassifierParams()),
			Init:          init,
		}
	}
	return joins
}

// wireRound is one barrier round through the wire half: dispatch → local
// → apply (Weight = Scale) → commit, in client-id order.
func wireRound(t *testing.T, algo fl.WireAlgorithm, clients []*fl.Client, batch int) {
	t.Helper()
	updates := make([]*fl.Update, len(clients))
	for i, c := range clients {
		vecs, err := algo.WireDispatch(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		u, err := algo.WireLocal(c, batch, vecs)
		if err != nil {
			t.Fatal(err)
		}
		updates[i] = u
	}
	for _, u := range updates {
		u.Weight = u.Scale
		if err := algo.WireApply(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := algo.WireCommit(); err != nil {
		t.Fatal(err)
	}
}

// TestFedAvgWireMatchesSyncRounds: FedAvg through the wire split must
// match the monolithic sync rounds on an identical fleet to floating-
// point tolerance (aggregation moves from a one-shot weighted average to
// the sharded accumulator; the weights are the same).
func TestFedAvgWireMatchesSyncRounds(t *testing.T) {
	const rounds, batch = 2, 8
	syncClients := fleet(t, 3, mlp)
	sim := fl.NewSimulation(syncClients, fl.Config{Rounds: rounds, BatchSize: batch, Seed: 1})
	syncAlgo := NewFedAvg(1)
	if err := syncAlgo.Setup(sim); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		if err := syncAlgo.Round(sim, r, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}

	wireClients := fleet(t, 3, mlp)
	wireAlgo := NewFedAvg(1)
	if err := wireAlgo.WireSetup(joinsFor(t, wireAlgo, wireClients), 4); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		wireRound(t, wireAlgo, wireClients, batch)
	}

	sg, wg := syncAlgo.Global(), wireAlgo.Global()
	for j := range sg {
		if math.Abs(sg[j]-wg[j]) > 1e-9 {
			t.Fatalf("global[%d]: sync %v vs wire %v", j, sg[j], wg[j])
		}
	}
}

// TestFedProtoWireMatchesSyncRounds: the prototype table after wire
// rounds must equal the sync rounds' bit for bit (per-class sample-count
// weighting), including nil entries for never-reported classes: the sync
// round folds its reports through the same WireApply and WireCommit.
func TestFedProtoWireMatchesSyncRounds(t *testing.T) {
	const rounds, batch = 2, 8
	syncClients := fleet(t, 3, het)
	sim := fl.NewSimulation(syncClients, fl.Config{Rounds: rounds, BatchSize: batch, Seed: 1})
	syncAlgo := NewFedProto(1, 1.0)
	if err := syncAlgo.Setup(sim); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		if err := syncAlgo.Round(sim, r, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}

	wireClients := fleet(t, 3, het)
	wireAlgo := NewFedProto(1, 1.0)
	if err := wireAlgo.WireSetup(joinsFor(t, wireAlgo, wireClients), 4); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		wireRound(t, wireAlgo, wireClients, batch)
	}

	for cls := range syncAlgo.globalProtos {
		sp, wp := syncAlgo.globalProtos[cls], wireAlgo.globalProtos[cls]
		if (sp == nil) != (wp == nil) {
			t.Fatalf("class %d: sync nil=%v, wire nil=%v", cls, sp == nil, wp == nil)
		}
		for j := range sp {
			if math.Float64bits(sp[j]) != math.Float64bits(wp[j]) {
				t.Fatalf("prototype %d[%d]: sync %v vs wire %v", cls, j, sp[j], wp[j])
			}
		}
	}
}

// TestLocalOnlyWireIsCommunicationFree: the baseline's wire half sends
// and receives nothing but still trains.
func TestLocalOnlyWireIsCommunicationFree(t *testing.T) {
	clients := fleet(t, 2, het)
	algo := NewLocalOnly(1)
	if err := algo.WireSetup(joinsFor(t, algo, clients), 4); err != nil {
		t.Fatal(err)
	}
	before := nn.FlattenParams(clients[0].Model.Params())
	before = append([]float64(nil), before...)
	vecs, err := algo.WireDispatch(0)
	if err != nil || vecs != nil {
		t.Fatalf("baseline dispatch = (%v, %v), want empty", vecs, err)
	}
	u, err := algo.WireLocal(clients[0], 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Vecs != nil || u.Scale != 0 {
		t.Fatalf("baseline update carries a payload: %+v", u)
	}
	after := nn.FlattenParams(clients[0].Model.Params())
	moved := false
	for j := range after {
		if after[j] != before[j] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("baseline wire round did not train the model")
	}
}

// TestKTpFLWireStagesTransfers: after a commit with two reports, each
// reporter's next dispatch carries a personalized transfer exactly once.
func TestKTpFLWireStagesTransfers(t *testing.T) {
	clients := fleet(t, 3, het)
	algo := NewKTpFL(1, 1, 12)
	algo.SetPublic(data.PublicSplit(data.SynthFashion(6, 4, 3), 12, 77), 1, 12, 12)
	if err := algo.WireSetup(joinsFor(t, algo, clients), 4); err != nil {
		t.Fatal(err)
	}
	// Round 1: no transfers exist yet.
	for _, c := range clients {
		vecs, err := algo.WireDispatch(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		if vecs != nil {
			t.Fatalf("client %d received a transfer before any commit", c.ID)
		}
		u, err := algo.WireLocal(c, 8, vecs)
		if err != nil {
			t.Fatal(err)
		}
		u.Weight = u.Scale
		if err := algo.WireApply(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := algo.WireCommit(); err != nil {
		t.Fatal(err)
	}
	// Round 2: every reporter has a staged transfer, consumed on dispatch.
	for _, c := range clients {
		vecs, err := algo.WireDispatch(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(vecs) != 1 || vecs[0] == nil {
			t.Fatalf("client %d has no staged transfer after the commit", c.ID)
		}
		if again, _ := algo.WireDispatch(c.ID); again != nil {
			t.Fatalf("client %d transfer was not consumed by dispatch", c.ID)
		}
		if len(vecs[0]) != len(algo.public)*clients[0].Model.Cfg.NumClasses {
			t.Fatalf("transfer has %d values", len(vecs[0]))
		}
	}
}

// TestKTpFLWireRejectsWrongLengthReports: a report whose length is not the
// federation's — len(public)·classes soft predictions, or the joins'
// parameter count for "+weight" — is an error at WireApply, and the commit
// over the well-formed reports still runs. Filed, a short report made the
// commit index past its end and panic the server.
func TestKTpFLWireRejectsWrongLengthReports(t *testing.T) {
	soft := NewKTpFL(1, 1, 12)
	soft.SetPublic(data.PublicSplit(data.SynthFashion(6, 4, 3), 12, 77), 1, 12, 12)
	for _, tc := range []struct {
		algo *KTpFL
		arch func(int) models.Arch
	}{{soft, het}, {NewKTpFLWeights(1), mlp}} {
		clients := fleet(t, 3, tc.arch)
		algo := tc.algo
		if err := algo.WireSetup(joinsFor(t, algo, clients), 4); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			u, err := algo.WireLocal(c, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			u.Weight = 1
			if c.ID == 1 {
				u.Vecs[0] = comm.AsF64Body(floats(u.Vecs[0])[:3])
				if err := algo.WireApply(u); err == nil {
					t.Errorf("%s: WireApply filed a %d-value report", algo.Name(), u.Vecs[0].Len())
				}
				continue
			}
			if err := algo.WireApply(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := algo.WireCommit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKTpFLRestoreRejectsWrongLengthReports: a checkpoint whose latest
// report or pending transfer has the wrong length is refused at restore,
// where the next commit would otherwise index past its end.
func TestKTpFLRestoreRejectsWrongLengthReports(t *testing.T) {
	const n = 3
	// Vector n+1 is client 1's latest report, 2n+1 its pending transfer.
	for _, at := range []int{n + 1, 2*n + 1} {
		sim := fl.NewSimulation(fleet(t, n, mlp), fl.Config{BatchSize: 8, Seed: 1})
		algo := NewKTpFLWeights(1)
		if err := algo.Setup(sim); err != nil {
			t.Fatal(err)
		}
		if err := algo.AsyncSetup(sim, &fl.SchedulerConfig{MixRate: 1}); err != nil {
			t.Fatal(err)
		}
		st, err := algo.AlgoSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		st.Vecs[at] = []float64{1, 2, 3}
		if err := algo.AlgoRestore(st); err == nil {
			t.Fatalf("restore accepted a 3-value entry at vector %d", at)
		}
	}
}

// TestFedProtoWireRejectsNegativeCounts: a report with a negative class
// count is an error at WireApply naming the client and class, and folds
// none of its classes, so the next commit's prototype table is the one the
// other reports make alone. Filed, the prototype folded at negative weight.
func TestFedProtoWireRejectsNegativeCounts(t *testing.T) {
	good := []*fl.Update{protoReport(0, 3, 1, 2, 4), protoReport(1, 2, 2, 0, 1)}
	run := func(refused *fl.Update) [][]float64 {
		algo := protoServer(t)
		for _, u := range good {
			if err := algo.WireApply(u); err != nil {
				t.Fatal(err)
			}
		}
		if refused != nil {
			wantNegativeCount(t, algo.WireApply(refused))
		}
		return commitProtos(t, algo)
	}
	sameProtos(t, run(negativeReport()), run(nil))
}

// TestFoldFromFrameMatchesDecodedPerMethod: FedProto and KT-pFL read their
// uploads and aggregates as bodies, in the frames they arrive in. At every
// dense codec and byte offset, FedProto's segment fold (WireApply), its
// per-class exact PreReduce and its WireApplyAggregate, and KT-pFL's report
// copy leave exactly the state the decoded vectors leave.
func TestFoldFromFrameMatchesDecodedPerMethod(t *testing.T) {
	const clients, numCls, featDim = 3, 4, 19
	rng := rand.New(rand.NewSource(12))
	protos := make([][][]float64, clients)
	for c := range protos {
		protos[c] = make([][]float64, numCls)
		for cls := range protos[c] {
			if cls == c { // every client leaves one class unreported
				continue
			}
			protos[c][cls] = make([]float64, featDim)
			for i := range protos[c][cls] {
				protos[c][cls][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
	}
	joins := make([]fl.WireJoin, clients)
	for c := range joins {
		joins[c] = fl.WireJoin{ID: c, TrainSize: 10, FeatDim: featDim, NumClasses: numCls, NumParams: featDim}
	}
	for _, codec := range []comm.Codec{comm.F64, comm.F32, comm.BF16, comm.I8} {
		for off := range 8 {
			// framed lays v out as a dense frame at codec and offset and
			// returns its body there and its decoded vector as a body.
			framed := func(v []float64) (frame, decoded comm.Body) {
				if v == nil {
					return comm.Body{}, comm.Body{}
				}
				buf := comm.MarshalSpecInto(make([]byte, off, 64+8*len(v)), comm.Spec{Value: codec}, 7, v, nil)
				if !frame.SetFrame(buf[off:]) {
					t.Fatalf("%s: no dense body", codec)
				}
				_, dec, _ := comm.DecodeSpec(nil, buf[off:], nil)
				return frame, comm.AsF64Body(dec)
			}
			upsFrame, upsDecoded := make([]*fl.Update, clients), make([]*fl.Update, clients)
			for c := range protos {
				counts := []int{3, 1, 4, 1}
				upsFrame[c] = &fl.Update{Client: c, Weight: float64(c + 1), Vecs: make([]comm.Body, numCls), Counts: counts}
				upsDecoded[c] = &fl.Update{Client: c, Weight: float64(c + 1), Vecs: make([]comm.Body, numCls), Counts: counts}
				for cls, v := range protos[c] {
					upsFrame[c].Vecs[cls], upsDecoded[c].Vecs[cls] = framed(v)
				}
			}
			where := fmt.Sprintf("%s/offset %d", codec, off)
			server := func() *FedProto {
				p := NewFedProto(1, 1)
				if err := p.WireSetup(joins, 1); err != nil {
					t.Fatal(err)
				}
				return p
			}

			// The segment fold.
			got, want := server(), server()
			for c := range upsFrame {
				if err := got.WireApply(upsFrame[c]); err != nil {
					t.Fatal(err)
				}
				if err := want.WireApply(upsDecoded[c]); err != nil {
					t.Fatal(err)
				}
			}
			committedSame(t, got, want)

			// The per-class exact pre-reduction.
			auGot, err := NewFedProto(1, 1).PreReduce(upsFrame)
			if err != nil {
				t.Fatal(err)
			}
			auWant, err := NewFedProto(1, 1).PreReduce(upsDecoded)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(auGot.Weight) != math.Float64bits(auWant.Weight) || fmt.Sprint(auGot.Counts) != fmt.Sprint(auWant.Counts) {
				t.Fatalf("%s: PreReduce's weights or counts differ", where)
			}
			sameBits(t, where+": PreReduce class weights", auGot.VecWeights, auWant.VecWeights)
			for cls := range auWant.Vecs {
				sameBits(t, fmt.Sprintf("%s: PreReduce class %d", where, cls), floats(auGot.Vecs[cls]), floats(auWant.Vecs[cls]))
			}

			// The aggregate fold, its sums framed in turn.
			aggFrame := &fl.AggUpdate{Children: clients, Weight: auWant.Weight, VecWeights: auWant.VecWeights,
				Counts: auWant.Counts, Vecs: make([]comm.Body, numCls)}
			aggDecoded := *aggFrame
			aggDecoded.Vecs = make([]comm.Body, numCls)
			for cls, sum := range auWant.Vecs {
				aggFrame.Vecs[cls], aggDecoded.Vecs[cls] = framed(floats(sum))
			}
			got, want = server(), server()
			if err := got.WireApplyAggregate(aggFrame); err != nil {
				t.Fatal(err)
			}
			if err := want.WireApplyAggregate(&aggDecoded); err != nil {
				t.Fatal(err)
			}
			committedSame(t, got, want)

			// KT-pFL's report copy.
			k := NewKTpFLWeights(1)
			if err := k.WireSetup(joins, 1); err != nil {
				t.Fatal(err)
			}
			for c := range protos {
				report, decoded := framed(protos[c][(c+1)%numCls])
				if err := k.WireApply(&fl.Update{Client: c, Weight: 1, Vecs: []comm.Body{report}}); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s: KT-pFL report %d", where, c), k.latest[c], floats(decoded))
			}
		}
	}
}

// committedSame commits two FedProto servers and fails unless their
// prototype tables are the same bits.
func committedSame(t *testing.T, got, want *FedProto) {
	t.Helper()
	if err := got.WireCommit(); err != nil {
		t.Fatal(err)
	}
	if err := want.WireCommit(); err != nil {
		t.Fatal(err)
	}
	sameProtos(t, got.globalProtos, want.globalProtos)
}
