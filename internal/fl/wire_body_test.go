package fl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestFoldFromFrameMatchesDecoded: the fan-in folds an upload or aggregate
// from the frame it arrived in, wherever the vector lies in it and whatever
// its dense codec. At every byte offset, folding the frame's body leaves
// each accumulator exactly as folding the decoded vector does: the exact
// accumulator cell for cell — promoted cells and a poisoning nonfinite term
// included — and the sharded one's sums and weights bit for bit, for
// Accumulate and Merge and their segment forms.
func TestFoldFromFrameMatchesDecoded(t *testing.T) {
	const n = 203
	rng := rand.New(rand.NewSource(11))
	vecs := [][]float64{nastyVec(rng, n, false), nastyVec(rng, n, false), modelLikeVec(rng, n), nastyVec(rng, n, false)}
	vecs[3][150] = math.NaN() // poisons the exact accumulator mid-vector
	weights := []float64{3, 0.25, 17, 1}
	for off := 0; off < 8; off++ {
		t.Run(fmt.Sprintf("offset %d", off), func(t *testing.T) {
			for _, c := range []comm.Codec{comm.F64, comm.F32, comm.BF16, comm.I8} {
				t.Run(c.String(), func(t *testing.T) { foldFromFrame(t, c, off, vecs, weights) })
			}
		})
	}
}

// foldFromFrame is TestFoldFromFrameMatchesDecoded at one codec and offset:
// each vector is framed at codec c, its body read at offset off, and its
// decoded form folded for the reference.
func foldFromFrame(t *testing.T, c comm.Codec, off int, framed [][]float64, weights []float64) {
	n := len(framed[0])
	bodies := make([]comm.Body, len(framed))
	vecs := make([][]float64, len(framed))
	for i, v := range framed {
		buf := comm.MarshalSpecInto(make([]byte, off, off+int(comm.WireSizeAs(c, n))), comm.Spec{Value: c}, msgUpdate, v, nil)
		if !bodies[i].SetFrame(buf[off:]) || bodies[i].Len() != n || bodies[i].Codec() != c {
			t.Fatalf("vector %d: no dense %s body in its frame", i, c)
		}
		_, vecs[i], _ = comm.DecodeSpec(nil, buf[off:], nil)
	}
	for k := 1; k <= len(vecs); k++ {
		want, got := NewExactAccumulator(n), NewExactAccumulator(n)
		for i := range vecs[:k] {
			want.Fold(vecs[i], weights[i])
			got.foldBody(bodies[i], weights[i])
		}
		if k == 3 && c == comm.F64 && got.promotions() == 0 {
			t.Fatal("no cell promoted: the wide path went untested")
		}
		sameExact(t, fmt.Sprintf("%d folds", k), got, want)
	}
	want, got := NewSharded(n, 3), NewSharded(n, 3)
	seg := n / 2
	wantSeg, gotSeg := NewSegmented([]int{seg, seg}), NewSegmented([]int{seg, seg})
	for i, v := range vecs {
		want.Accumulate(v, weights[i])
		got.accumulateBody(bodies[i], weights[i])
		want.Merge(v, weights[i])
		got.mergeBody(bodies[i], weights[i])
		// A class's segment as a frame of its own, at the same offset.
		var part comm.Body
		buf := comm.MarshalSpecInto(make([]byte, off, 64+8*seg), comm.Spec{Value: c}, msgUpdate, v[:seg], nil)
		part.SetFrame(buf[off:])
		decoded := comm.AsF64Body(floatsOf([]comm.Body{part})[0])
		wantSeg.AccumulateSegment(0, decoded, weights[i])
		gotSeg.AccumulateSegment(0, part, weights[i])
		wantSeg.MergeSegment(1, decoded, weights[i])
		gotSeg.MergeSegment(1, part, weights[i])
	}
	if !sameBitsF(got.sum, want.sum) || !sameBitsF(got.wsum, want.wsum) {
		t.Fatal("the sharded accumulator's frame folds differ from its vector folds")
	}
	if !sameBitsF(gotSeg.sum, wantSeg.sum) || !sameBitsF(gotSeg.wsum, wantSeg.wsum) {
		t.Fatal("the segmented accumulator's frame folds differ from its vector folds")
	}
}

// sameExact fails unless two exact accumulators hold the same state.
func sameExact(t *testing.T, where string, got, want *ExactAccumulator) {
	t.Helper()
	if got.poisoned != want.poisoned || !sameBitsF(got.hi, want.hi) || !sameBitsF(got.lo, want.lo) ||
		!sameBitsF(got.plain, want.plain) || math.Float64bits(got.plainW) != math.Float64bits(want.plainW) ||
		len(got.wide) != len(want.wide) {
		t.Fatalf("%s: the frame folds left another state than the vector folds", where)
	}
	for i := range got.wide {
		if got.wide[i] != want.wide[i] {
			t.Fatalf("%s: promoted limb %d differs", where, i)
		}
	}
}

func sameBitsF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// wholeModel is the smallest WeightMethod: the whole model, no pull, one
// local epoch.
type wholeModel struct{}

func (wholeModel) Name() string                     { return "whole" }
func (wholeModel) Shared(c *Client) []*nn.Param     { return c.Model.Params() }
func (wholeModel) Ref(*Client, []float64) []float64 { return nil }
func (wholeModel) Pulls(*Client) bool               { return false }
func (wholeModel) Upload(_ *Client, v []float64) []comm.Body {
	return []comm.Body{comm.AsF64Body(v)}
}
func (wholeModel) Train(group []*Client, batchSize int, _ [][]float64) {
	TrainEpochs(group, batchSize, 1, Objective{})
}

// TestWireUploadIsTheArena: an F64 client uploads its value slab itself —
// the update's vector is the slab, and the upload frame carries the slab's
// bytes — while an F32 or BF16 client's upload is FlatUpload's widening, its
// frame byte-identical to one encoded from nn.FlattenParams. A dispatch
// installed straight from its body (localInstalled after Body.DecodeInto)
// trains and uploads exactly what WireLocal does from the decoded vector.
func TestWireUploadIsTheArena(t *testing.T) {
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
		t.Run(dt.String(), func(t *testing.T) {
			client := func() *Client {
				m := models.New(models.Config{Arch: models.ArchMLP, InC: 1, InH: 12, InW: 12, FeatDim: 8, NumClasses: 10, Hidden: 16, DType: dt}, xrand.New(3))
				return &Client{ID: 0, Model: m, Train: ds.Train[:24], Rng: rand.New(rand.NewSource(5)), Optimizer: opt.NewAdam(0.01)}
			}
			h := NewWeightAvg(wholeModel{})
			global := nn.FlattenParams(client().Model.Params())
			for i := range global {
				global[i] += 1e-3 * float64(i%7)
			}

			a := client()
			u, err := h.WireLocal(a, 8, [][]float64{global})
			if err != nil {
				t.Fatal(err)
			}
			frame := appendMsg(nil, &wireMsg{kind: msgUpdate, vecs: u.Vecs}, nil)
			vals, _ := nn.Flat(a.Model.Params())
			if dt == tensor.F64 {
				if &u.Vecs[0].Floats()[0] != &vals.Data[0] {
					t.Fatal("an F64 upload is not the value slab")
				}
				if !bytes.Contains(frame, comm.AsF64Body(vals.Data).Bytes()) {
					t.Fatal("the upload frame does not carry the slab's bytes")
				}
			} else {
				parent := appendMsg(nil, &wireMsg{kind: msgUpdate, vecs: bodiesOf([][]float64{nn.FlattenParams(a.Model.Params())})}, nil)
				if !bytes.Equal(frame, parent) {
					t.Fatal("a narrow client's upload frame differs from FlatUpload's")
				}
			}
			want := floatsOf(u.Vecs)[0]

			b := client()
			bvals, _ := nn.Flat(b.Model.Params())
			var disp comm.Body
			disp.SetFrame(comm.MarshalSpecInto(nil, comm.Spec{}, msgDispatch, global, nil))
			if err := disp.DecodeInto(&bvals); err != nil {
				t.Fatal(err)
			}
			ub, err := h.localInstalled(b, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBitsF(floatsOf(ub.Vecs)[0], want) {
				t.Fatal("training on a dispatch installed from its frame uploads other bits than WireLocal")
			}
		})
	}
}
