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
// A pass holds only what a later step of it reads. A layer leases its
// buffers from its model's arena (tensor.Arena): every layer of a model
// shares one pass (Bind, and the composite constructors), whose arena is
// taken from a free list at the model's first lease and goes back there
// when Release ends the pass, for the next pass of any model. The arena
// serves each lease at the lowest free range that fits and takes each
// hand-back into its free neighbours, so it is sized by what is leased at
// once, not by what has run:
//   - Scratch no later call reads is leased for one call and handed back
//     when the call returns: a convolution's im2col, product and gradient
//     matrices. The one exception is a training Forward whose batch fits one
//     convolution block, which keeps its lowering for the Backward that
//     reuses it; that Backward hands it back.
//   - A layer keeps one output, which each Forward of the pass overwrites,
//     and what its Backward reads of the forward (batch norm's x̂).
//   - Input gradients are handed back behind the training backward walk:
//     once the layer in front has read one, it goes back to the arena
//     (SequentialBackwardBatch), and with a max pooling layer's input
//     gradient go its argmax positions. An evaluation-mode pass keeps
//     nothing for a backward pass, so the walker hands each layer's
//     workspaces back as soon as no later layer can read them
//     (SequentialForwardBatch, which Sequential.Forward runs as a group of
//     one).
//   - Release hands back everything left when the pass ends, and then the
//     arena.
//
// A model between passes holds only its parameters, gradients and running
// statistics. Once an arena has served a pass's leases, a training pass
// allocates nothing: each lease is a range of a chunk it already has, under
// a recycled header, and so are the driver's batch inputs and the losses'
// gradients and intermediates (fl.TrainEpochs, package loss, ArenaOf), so
// a warm local epoch makes no heap allocation (the root package's
// TestHotPathAllocs holds ClientLocalEpoch at 0 allocs/op). Leases arrive
// dirty: every layer overwrites each element it later reads. A model's
// parameters live in two exact-length pool slabs, one for values and one
// for gradients, in Params() order (Pack), so every flat view of a run of
// them is one range (Flat); a built model keeps its slabs for life, and
// Init re-initializes them in place when the model is reused.
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

// putBack hands workspaces back to their arena and clears their fields.
func putBack(ws ...**tensor.Tensor) {
	for _, w := range ws {
		tensor.PutTensor(*w)
		*w = nil
	}
}

// pass is the arena one model's passes lease from. Every layer of a model
// points at the same pass (bind): the constructors of Sequential, Residual
// and Inception bind what they are given to a new one, so the outermost
// constructor's pass is the model's, and Bind joins layers built apart. The
// arena is taken from the tensor package's free list at the model's first
// lease and goes back when Release ends the pass — unless the pass is lent
// a group leader's (Join), which the leader's Release hands back.
type pass struct {
	a    *tensor.Arena
	lent bool // a is another model's pass's
	need int  // the most a pass of it leased at once, for TakeArena
}

// ws is a layer's handle on its model's pass; every layer embeds one.
type ws struct{ p *pass }

func (w *ws) bind(p *pass) { w.p = p }

func (w *ws) scope() *ws { return w }

// arena returns the arena of w's pass, taking one from the free list when
// the pass holds none. A layer never bound is a model of its own.
func (w *ws) arena() *tensor.Arena {
	if w.p == nil {
		w.p = new(pass)
	}
	if w.p.a == nil {
		w.p.a = tensor.TakeArena(w.p.need)
	}
	return w.p.a
}

// ensure is tensor.Arena.Ensure on w's arena.
func (w *ws) ensure(dt tensor.DType, t *tensor.Tensor, shape ...int) *tensor.Tensor {
	return w.arena().Ensure(dt, t, shape...)
}

// end ends w's pass: its own arena goes back to the free list, and the
// most it leased at once is kept as the next pass's need; a lent arena
// stays its lender's.
func (w *ws) end() {
	if w.p == nil || w.p.a == nil {
		return
	}
	if !w.p.lent {
		w.p.need = max(w.p.need, w.p.a.Free())
	}
	w.p.a, w.p.lent = nil, false
}

// Bind makes ls one model: their passes lease from one arena, which
// Release of them all hands back. models.SplitModel binds its extractor and
// its classifier, which it steps apart.
func Bind(ls ...Layer) {
	p := new(pass)
	for _, l := range ls {
		l.bind(p)
	}
}

// Join makes l's next pass lease from lead's arena, until Release ends it:
// a group stepped in lockstep (fl.TrainEpochs) holds one arena, its
// leader's, so its members' leases share chunks instead of each member
// taking an arena of its own. Release the members before the leader, whose
// Release hands the arena back. A pass that already holds an arena keeps
// it.
func Join(l, lead Layer) {
	if p := l.scope().p; p != nil && p.a == nil && p != lead.scope().p {
		p.a, p.lent = ArenaOf(lead), true
	}
}

// ArenaOf returns the arena l's pass leases from, taking one when the pass
// holds none: where a pass driver leases the scratch around its layers (the
// batch, a cast input), so that Release hands it back with theirs.
func ArenaOf(l Layer) *tensor.Arena { return l.scope().arena() }

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
// value storage they had goes back to the tensor package's pool. Layer
// workspaces follow the activations' dtype lazily on the first pass.
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
// release hands back what a pass leased (see Release), releaseGrad hands
// back the input gradient Backward returned once the layer in front has
// read it (the backward walk's release-behind rule), and bind and scope
// reach the layer's pass, so every layer is declared in this package.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	release()
	releaseGrad()
	bind(p *pass)
	scope() *ws
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

// Release ends a pass over ls: every workspace they and their sublayers
// hold — outputs, input gradients, normalization caches, a kept im2col
// lowering — goes back to the arena, every cached reference to an
// activation is dropped, and then their pass's arena goes back to the free
// list. Parameters, gradients and running statistics stay. Tensors ls
// returned are invalid afterwards; the next pass takes an arena again.
// Layers bound together (Bind) end their pass together, so Release is
// given them all.
func Release(ls ...Layer) {
	for _, l := range ls {
		l.release()
	}
	for _, l := range ls {
		l.scope().end()
	}
}

// Sequential chains layers front to back. Its forward and backward are the
// one walker (SequentialForwardBatch, SequentialBackwardBatch): Forward and
// Backward run it over a group of one.
type Sequential struct {
	ws
	Layers []Layer

	// Group scratch while s leads (group.go): the members' layers at the
	// current position, held for one call, and the activations the walks
	// return.
	at       []Layer
	fwd, bwd []*tensor.Tensor
}

// NewSequential builds a Sequential from the given layers, binding them to
// one pass (see Bind).
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: layers}
	s.bind(new(pass))
	return s
}

func (s *Sequential) bind(p *pass) {
	s.ws.bind(p)
	for _, l := range s.Layers {
		l.bind(p)
	}
}

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

// Append adds layers to the end of the sequence, in its pass.
func (s *Sequential) Append(layers ...Layer) {
	if s.p == nil {
		s.bind(new(pass))
	}
	for _, l := range layers {
		l.bind(s.p)
	}
	s.Layers = append(s.Layers, layers...)
}

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
