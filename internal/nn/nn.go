// Package nn is a from-scratch neural-network layer library with manual
// backpropagation. It provides the building blocks (dense, convolution,
// pooling, batch normalization, residual and inception composites) used to
// construct the miniature heterogeneous architectures of the FedClassAvg
// reproduction, plus the parameter flattening the federated aggregation,
// communication and checkpoint code exchange flat vectors through.
//
// Every layer's forward and backward pass steps a group of same-configuration
// instances in lockstep, one per model (group.go, DESIGN.md §12); Forward
// and Backward are that pass at a group of one.
//
// Layers are stateful: Forward caches whatever Backward needs, so a layer
// instance must not be shared between concurrently training models. Every
// client in the federated simulation owns its own model instance. Dense and
// Conv2D cache a pointer to their input and read it again in Backward
// (Conv2D lowers it block by block a second time), so Backward must follow
// a training-mode Forward; the aliasing contract below already keeps that
// input valid, since the producing layer runs no Forward in between.
//
// A pass holds only what a later step of it reads. A layer takes its
// buffers from the tensor package's default pool (tensor.EnsureOf), so the
// pool is sized by what is leased at once, not by what has run:
//   - Scratch no later call reads is leased for one call and handed back
//     when the call returns: a convolution's im2col, product and gradient
//     matrices. The one exception is a training Forward whose batch fits one
//     convolution block, which keeps its lowering for the Backward that
//     reuses it; that Backward hands it back.
//   - A layer keeps one output, which each Forward of the pass overwrites,
//     and what its Backward reads of the forward (batch norm's x̂).
//   - Input gradients are handed back behind the training backward walk:
//     once the layer in front has read one, it goes back to the pool
//     (SequentialBackwardBatch). An evaluation-mode pass keeps nothing for a
//     backward pass, so the walker hands each layer's workspaces back as
//     soon as no later layer can read them (SequentialForwardBatch, which
//     Sequential.Forward runs as a group of one).
//   - Release hands back everything left when the pass ends.
//
// A model between passes holds only its parameters, gradients and running
// statistics. Once the pool holds what a pass leases, a training pass
// allocates nothing: each lease is served from buffers handed back earlier,
// and so are the driver's batch inputs and the losses' gradients
// (fl.TrainEpochs, package loss), so a warm local epoch makes no heap
// allocation (the root package's TestHotPathAllocs holds ClientLocalEpoch
// at 0 allocs/op). Pooled buffers arrive dirty: every layer overwrites each
// element it later reads. A model's parameters live in two exact-length
// pool slabs, one for values and one for gradients, in Params() order
// (Pack), so every flat view of a run of them is one range (Flat); a built
// model keeps its slabs for life, and Init re-initializes them in place when
// the model is reused.
//
// A training step reads no input gradient from the model's first layer, so
// its reverse walk (SequentialBackwardParams, Sequential.BackwardParams)
// ends at the first layer with parameters, which computes its parameter
// gradients alone: a Dense or Conv2D there skips the input-gradient product
// and leases no input-gradient buffer, and the parameter-free layers in
// front of it are not visited. The full walk (Backward,
// SequentialBackwardBatch) returns the input gradient, which Residual,
// Inception and the gradient checks read.
//
// Activation aliasing contract: a tensor returned by Forward or Backward
// stays valid until the same layer's corresponding method runs again or
// Release ends the pass, whichever comes first. Inside an evaluation-mode
// walk of a Sequential, a layer's output is valid only until the layers
// after it have read it; inside a training backward walk, a layer's input
// gradient is valid only until the layer before it has read it. So in
// either walk only what the walk returns obeys the rule. Callers that
// retain activations longer (for example to compare the outputs of two
// passes) must Clone them.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// putBack returns workspaces to the tensor pool and clears their fields.
func putBack(ws ...**tensor.Tensor) {
	for _, w := range ws {
		tensor.PutTensor(*w)
		*w = nil
	}
}

// dropViews detaches cached view headers from the storage they point into;
// the headers stay for the next pass to re-point.
func dropViews(vs []*tensor.Tensor) {
	for _, v := range vs {
		if v != nil {
			v.Data, v.F32 = nil, nil
		}
	}
}

// viewRing2 double-buffers reshaped views: tensor headers sharing another
// tensor's storage (and dtype), used by shape-only layers to avoid per-call
// header allocations.
type viewRing2 struct {
	views [2]*tensor.Tensor
	idx   int
}

func (r *viewRing2) next(src *tensor.Tensor, shape ...int) *tensor.Tensor {
	r.idx ^= 1
	v := r.views[r.idx]
	if v == nil {
		v = &tensor.Tensor{}
		r.views[r.idx] = v
	}
	tensor.ViewInto(v, src, 0, src.Size(), shape...)
	return v
}

func (r *viewRing2) release() { dropViews(r.views[:]) }

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam builds a named float64 parameter for a layer to initialize: a
// zero value on exact-length pool storage, and no gradient until Pack.
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.NewStorageOf(tensor.F64, shape...), Grad: new(tensor.Tensor)}
}

// Pack moves freshly built parameters into one value slab and one gradient
// slab of dtype dt, in order: each Value becomes a view of its block,
// narrowed from its float64 initialization, each Grad a zero view, and the
// value storage they had goes back to the pool. Layer workspaces follow the
// activations' dtype lazily on the first pass.
func Pack(params []*Param, dt tensor.DType) {
	n, off := NumParams(params), 0
	vals, grads := tensor.NewStorageOf(dt, n), tensor.NewStorageOf(dt, n)
	for _, p := range params {
		init, size := p.Value.Data, p.Value.Size()
		tensor.ViewInto(p.Value, vals, off, off+size, p.Value.Shape...)
		tensor.ViewInto(p.Grad, grads, off, off+size, p.Value.Shape...)
		p.Value.SetFromFloat64s(init)
		tensor.PutStorage(init)
		off += size
	}
}

// Flat returns the values and the gradients params cover as two flat
// tensors over their model's slabs — the storage itself. params must be a
// contiguous run of one packed model's parameters, such as Params() or
// ClassifierParams(); it panics otherwise.
func Flat(params []*Param) (vals, grads tensor.Tensor) {
	if len(params) == 0 {
		return vals, grads
	}
	n, off := NumParams(params), 0
	vals, grads = span(params[0].Value, 0, n), span(params[0].Grad, 0, n)
	for _, p := range params {
		if v, g := span(&vals, off, n), span(&grads, off, n); !sameStorage(&v, p.Value) || !sameStorage(&g, p.Grad) {
			panic("nn: parameters are not a contiguous run of one packed model")
		}
		off += p.Value.Size()
	}
	return vals, grads
}

// span returns t's storage from lo to hi (up to its capacity) flat.
func span(t *tensor.Tensor, lo, hi int) tensor.Tensor {
	if t.DT.Backing() == tensor.F32 {
		return tensor.Tensor{DT: t.DT, F32: t.F32[lo:hi:hi]}
	}
	return tensor.Tensor{DT: t.DT, Data: t.Data[lo:hi:hi]}
}

// Layer is one differentiable stage of a model. Forward consumes the
// previous activation and returns the next; Backward consumes dL/d(output)
// and returns dL/d(input), accumulating parameter gradients as a side
// effect. The train flag selects training behaviour (batch statistics).
// release ends a pass (see Release), and releaseGrad hands back the input
// gradient Backward returned once the layer in front has read it (the
// backward walk's release-behind rule), so every layer is declared in this
// package.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	release()
	releaseGrad()
}

// initializer is a layer with parameters or running statistics. Its init
// sets them to their initial values, drawing from rng in the order the
// constructors draw: the constructor of a drawing layer calls it, and Init
// calls it again on a built layer.
type initializer interface {
	init(rng *rand.Rand)
}

// Init re-initializes l and its sublayers in place, in the layer tree's
// pre-order — the order in which building the tree called the
// constructors — so a built layer given a source in the same state as its
// construction's comes out bit-identical to a newly constructed one: the
// same draws land in the same values, narrowed to the parameters' dtype
// exactly as Pack narrows a float64 initialization. Gradients, workspaces
// and every other cache are the caller's: Init sets only what the
// constructors set.
func Init(l Layer, rng *rand.Rand) {
	if in, ok := l.(initializer); ok {
		in.init(rng)
	}
}

// Release ends a pass over l: every workspace l and its sublayers hold —
// outputs, input gradients, normalization caches, a kept im2col lowering —
// goes back to the tensor pool, and every cached reference to an
// activation is dropped. Parameters, gradients and running statistics
// stay. Tensors l returned are invalid afterwards; the next pass takes its
// buffers from the pool again.
func Release(l Layer) { l.release() }

// Sequential chains layers front to back. Its forward and backward are the
// one walker (SequentialForwardBatch, SequentialBackwardBatch): Forward and
// Backward run it over a group of one.
type Sequential struct {
	Layers []Layer

	// Group scratch while s leads (group.go): the members' layers at the
	// current position, held for one call, and the activations the walks
	// return.
	at       []Layer
	fwd, bwd []*tensor.Tensor
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs every layer in order (see SequentialForwardBatch).
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return SequentialForwardBatch([]*Sequential{s}, []*tensor.Tensor{x}, train)[0]
}

// sameStorage reports whether b starts at a's first element — a view or
// the tensor itself.
func sameStorage(a, b *tensor.Tensor) bool {
	if a.DT.Backing() == tensor.F32 {
		return len(a.F32) > 0 && len(b.F32) > 0 && &a.F32[0] == &b.F32[0]
	}
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return SequentialBackwardBatch([]*Sequential{s}, []*tensor.Tensor{grad})[0]
}

// BackwardParams runs the backward pass for the parameter gradients alone
// (SequentialBackwardParams), as a group of one.
func (s *Sequential) BackwardParams(grad *tensor.Tensor) {
	seqs, grads := [1]*Sequential{s}, [1]*tensor.Tensor{grad}
	SequentialBackwardParams(seqs[:], grads[:])
}

// Params returns the parameters of all layers, in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (s *Sequential) release() {
	for _, l := range s.Layers {
		l.release()
	}
	drop(&s.fwd)
	drop(&s.bwd)
}

// releaseGrad hands back every layer's input gradient: once a walk's
// returned gradient has been read, nothing else of the walk's is live.
func (s *Sequential) releaseGrad() {
	for _, l := range s.Layers {
		l.releaseGrad()
	}
}

func (s *Sequential) init(rng *rand.Rand) {
	for _, l := range s.Layers {
		Init(l, rng)
	}
}

// Append adds layers to the end of the sequence.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// BufferedLayer is implemented by layers carrying non-trainable state that
// checkpoints must capture alongside parameters — batch-norm running
// statistics. Buffers returns the live state slices (not copies), in a
// deterministic order, so callers can both read and overwrite them. Running
// statistics are per-channel scalars, not per-element state, so they stay
// float64 bookkeeping at every model dtype (see DESIGN.md §7): narrowing
// them would buy no bandwidth and cost checkpoint exactness.
type BufferedLayer interface {
	Buffers() [][]float64
}

// Buffers returns the buffer slices of all layers, in layer order,
// recursing into composite layers.
func (s *Sequential) Buffers() [][]float64 {
	var bs [][]float64
	for _, l := range s.Layers {
		if bl, ok := l.(BufferedLayer); ok {
			bs = append(bs, bl.Buffers()...)
		}
	}
	return bs
}

// NumBuffered returns the total scalar count across buffer slices.
func NumBuffered(bufs [][]float64) int {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// AppendFlatBuffers appends the buffer slices to out (reusing its capacity),
// in order: the flat vector checkpoints and spill records carry.
func AppendFlatBuffers(out []float64, bufs [][]float64) []float64 {
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// SetFlatBuffers writes a flat vector produced by AppendFlatBuffers back into
// the live buffer slices. It returns an error if the lengths disagree.
func SetFlatBuffers(bufs [][]float64, flat []float64) error {
	if len(flat) != NumBuffered(bufs) {
		return fmt.Errorf("nn: flat vector has %d values, model has %d buffered", len(flat), NumBuffered(bufs))
	}
	off := 0
	for _, b := range bufs {
		copy(b, flat[off:off+len(b)])
		off += len(b)
	}
	return nil
}

// ZeroGrads resets the gradients of a packed run of parameters (see Flat).
func ZeroGrads(params []*Param) {
	_, g := Flat(params)
	g.Zero()
}

// NumParams returns the total scalar parameter count.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// FlattenParams copies a packed run of parameter values (see Flat) into one
// float64 vector, in order. Flat vectors are the federation's always-f64
// bookkeeping representation; float32 parameters widen exactly, so
// flatten/set round trips are lossless at either dtype.
func FlattenParams(params []*Param) []float64 {
	return AppendFlatParams(make([]float64, 0, NumParams(params)), params)
}

// AppendFlatParams appends the flattened parameters to out (reusing its
// capacity), for callers that recycle flat vectors across spill cycles.
func AppendFlatParams(out []float64, params []*Param) []float64 {
	v, _ := Flat(params)
	return v.AppendFloat64s(out)
}

// SetFlatParams writes a flat vector produced by FlattenParams back into a
// packed run of parameters, narrowing to the model dtype. It returns an
// error if the lengths disagree.
func SetFlatParams(params []*Param, flat []float64) error {
	if len(flat) != NumParams(params) {
		return fmt.Errorf("nn: flat vector has %d values, model has %d parameters", len(flat), NumParams(params))
	}
	v, _ := Flat(params)
	v.SetFromFloat64s(flat)
	return nil
}

// ParamsDType reports the dtype of a parameter list (F64 for an empty one).
func ParamsDType(params []*Param) tensor.DType {
	if len(params) == 0 {
		return tensor.F64
	}
	return params[0].Value.DT
}

// heInit fills a weight tensor with He-normal initialization for the given
// fan-in, the standard choice for ReLU networks.
func heInit(w *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	w.FillRandn(rng, std)
}
