// Package loss implements the objective functions of the FedClassAvg
// reproduction: softmax cross-entropy, the two-view supervised contrastive
// loss of Khosla et al. (2020) used for local representation learning, the
// L2 proximal regularizer that keeps client classifiers near the global
// classifier, and the temperature-scaled KL distillation loss used by the
// KT-pFL baseline. Every function returns both the scalar loss and the
// gradient with respect to its input so layers can stay autodiff-free.
//
// A returned gradient, and every intermediate, is leased beside the loss's
// input (tensor.LeaseBeside): from the arena of the pass that produced the
// logits or features. Once the backward pass has consumed the gradient,
// the caller hands it back with tensor.PutTensor, and a training step that
// does so allocates nothing for its losses; the pass's end reclaims one
// the caller keeps. An input that is no lease gets new tensors.
//
// Losses are dtype-generic: gradients come back in the input activations'
// dtype (so the backward pass stays on the model's fast path), while scalar
// loss values are always float64 bookkeeping. Transcendentals are evaluated
// through the float64 math package and narrowed, which keeps the float64
// instantiation bit-identical to the historical implementation.
package loss

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// CrossEntropy computes mean softmax cross-entropy over a batch of logits
// [N, C] with integer labels, returning the loss and dL/dlogits, leased
// beside the logits.
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n := logits.Rows()
	if len(labels) != n {
		panic("loss: CrossEntropy label count mismatch")
	}
	grad := tensor.LeaseBeside(logits, logits.DT, n, logits.Cols())
	if logits.DT.Backing() == tensor.F32 {
		return crossEntropy(tensor.Of[float32](logits), tensor.Of[float32](grad), labels, logits.Cols()), grad
	}
	return crossEntropy(logits.Data, grad.Data, labels, logits.Cols()), grad
}

func crossEntropy[F tensor.Float](logits, grad []F, labels []int, c int) float64 {
	n := len(labels)
	var total float64
	inv := 1.0 / float64(n)
	invF := F(inv)
	for i := 0; i < n; i++ {
		row := logits[i*c : (i+1)*c]
		lse := tensor.LogSumExpOf(row)
		y := labels[i]
		total += float64(lse - row[y])
		grow := grad[i*c : (i+1)*c]
		for j := range row {
			p := F(math.Exp(float64(row[j] - lse)))
			grow[j] = p * invF
		}
		grow[y] -= invF
	}
	return total * inv
}

// SupConOptions configures the supervised contrastive loss.
type SupConOptions struct {
	// Temperature scales similarities; the paper (following Khosla et al.)
	// uses small values around 0.07–0.5.
	Temperature float64
}

// SupCon computes the supervised contrastive loss over two augmented views.
// features must be [2N, D]: rows 0..N-1 are view one, rows N..2N-1 view two,
// and row i and row i+N share labels[i]. The features need not be
// normalized; L2 normalization is part of the loss (and its backward pass).
// It returns the loss and dL/dfeatures of shape [2N, D], leased beside the
// features.
//
// For anchor i with positives P(i) = {j ≠ i : label_j = label_i}:
//
//	L_i = log Σ_{a≠i} exp(z_i·z_a/τ) − (1/|P(i)|) Σ_{p∈P(i)} z_i·z_p/τ
//
// and the total loss is the mean over all 2N anchors. With two views every
// anchor has at least one positive (its sibling view), so |P(i)| ≥ 1.
func SupCon(features *tensor.Tensor, labels []int, optsIn ...SupConOptions) (float64, *tensor.Tensor) {
	opts := SupConOptions{Temperature: 0.1}
	if len(optsIn) > 0 && optsIn[0].Temperature > 0 {
		opts = optsIn[0]
	}
	m := features.Rows()
	if m%2 != 0 || m/2 != len(labels) {
		panic("loss: SupCon expects [2N, D] features and N labels")
	}
	df := tensor.LeaseBeside(features, features.DT, m, features.Cols())
	var lossVal float64
	if features.DT.Backing() == tensor.F32 {
		lossVal = supCon[float32](features, df, labels, opts.Temperature)
	} else {
		lossVal = supCon[float64](features, df, labels, opts.Temperature)
	}
	return lossVal, df
}

func supCon[F tensor.Float](features, df *tensor.Tensor, labels []int, tau float64) float64 {
	dt := features.DT
	m := features.Rows()
	d := features.Cols()
	n := m / 2

	// Normalize a leased copy of the features, remembering norms for the
	// backward pass through the normalization. All O(m²) intermediates are
	// leased beside the features and go back at the end, as the returned
	// gradient does once the caller is done with it.
	z := tensor.LeaseBeside(features, dt, m, d)
	defer tensor.PutTensor(z)
	z.CopyFrom(features)
	norms := z.NormalizeRowsInPlace(tensor.GetStorage[float64](m), 1e-12)
	defer tensor.PutStorage(norms)
	// Rows a and a+n are the two views of example a.
	label := func(a int) int {
		if a < n {
			return labels[a]
		}
		return labels[a-n]
	}

	// Pairwise scaled similarities s_ij = z_i·z_j/τ.
	sim := tensor.LeaseBeside(features, dt, m, m)
	defer tensor.PutTensor(sim)
	tensor.MatMulABTInto(sim, z, z)
	sim.ScaleInPlace(1 / tau)
	simd := tensor.Of[F](sim)

	// G_ia = softmax over a≠i of s_ia, minus 1/|P(i)| for positives.
	g := tensor.LeaseBeside(features, dt, m, m)
	defer tensor.PutTensor(g)
	gd := tensor.Of[F](g)
	var total float64
	for i := 0; i < m; i++ {
		row := simd[i*m : (i+1)*m]
		// log-sum-exp over a ≠ i
		maxV := F(math.Inf(-1))
		for a := 0; a < m; a++ {
			if a != i && row[a] > maxV {
				maxV = row[a]
			}
		}
		var sum F
		for a := 0; a < m; a++ {
			if a != i {
				sum += F(math.Exp(float64(row[a] - maxV)))
			}
		}
		lse := maxV + F(math.Log(float64(sum)))
		yi := label(i)
		nPos := 0
		var posSum F
		for a := 0; a < m; a++ {
			if a != i && label(a) == yi {
				nPos++
				posSum += row[a]
			}
		}
		if nPos == 0 {
			continue // cannot happen with two views, but stay safe
		}
		total += float64(lse - posSum/F(float64(nPos)))
		grow := gd[i*m : (i+1)*m]
		invPos := F(1.0 / float64(nPos))
		for a := 0; a < m; a++ {
			if a == i {
				continue
			}
			p := F(math.Exp(float64(row[a] - lse)))
			if label(a) == yi {
				p -= invPos
			}
			grow[a] = p
		}
	}
	lossVal := total / float64(m)

	// dL/dz_i = (1/(Mτ)) Σ_a (G_ia + G_ai)·z_a
	scale := F(1.0 / (float64(m) * tau))
	gSym := tensor.LeaseBeside(features, dt, m, m)
	defer tensor.PutTensor(gSym)
	gSymd := tensor.Of[F](gSym)
	for i := 0; i < m; i++ {
		for a := 0; a < m; a++ {
			gSymd[i*m+a] = (gd[i*m+a] + gd[a*m+i]) * scale
		}
	}
	dz := tensor.LeaseBeside(features, dt, m, d)
	defer tensor.PutTensor(dz)
	tensor.MatMulInto(dz, gSym, z)

	// Backprop through z = f/‖f‖: df = (dz − z·(z·dz)) / ‖f‖.
	zd, dzd, dfd := tensor.Of[F](z), tensor.Of[F](dz), tensor.Of[F](df)
	for i := 0; i < m; i++ {
		zi := zd[i*d : (i+1)*d]
		dzi := dzd[i*d : (i+1)*d]
		var dot F
		for j := 0; j < d; j++ {
			dot += zi[j] * dzi[j]
		}
		inv := F(1 / norms[i])
		dfi := dfd[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			dfi[j] = (dzi[j] - zi[j]*dot) * inv
		}
	}
	return lossVal
}

// Proximal adds the gradient of ρ·‖w − w_global‖² to the parameter
// gradients and returns the penalty value, in one pass over the packed run
// params (nn.Flat). globalFlat must have the layout nn.FlattenParams gives
// it; the difference is computed in float64 bookkeeping and the gradient
// contribution narrows to the parameter dtype.
func Proximal(params []*nn.Param, globalFlat []float64, rho float64) float64 {
	if rho == 0 {
		return 0
	}
	nn.UseGrads(params)
	w, g := nn.Flat(params)
	if w.DT.Backing() == tensor.F32 {
		return rho * proximal(w.F32, g.F32, globalFlat, rho)
	}
	return rho * proximal(w.Data, g.Data, globalFlat, rho)
}

func proximal[F tensor.Float](w, g []F, globalFlat []float64, rho float64) float64 {
	var penalty float64
	for j := range w {
		d := float64(w[j]) - globalFlat[j]
		penalty += d * d
		g[j] += F(2 * rho * d)
	}
	return penalty
}

// KLDistill computes the temperature-scaled distillation loss
// T²·KL(teacher ‖ student) between teacher probabilities [N, C] and student
// logits [N, C], returning the loss and dL/d(student logits), leased
// beside the student logits. The T² factor keeps gradient magnitudes
// comparable across temperatures (Hinton et al.).
func KLDistill(studentLogits, teacherProbs *tensor.Tensor, temperature float64) (float64, *tensor.Tensor) {
	n, c := studentLogits.Rows(), studentLogits.Cols()
	if teacherProbs.Rows() != n || teacherProbs.Cols() != c {
		panic("loss: KLDistill shape mismatch")
	}
	grad := tensor.LeaseBeside(studentLogits, studentLogits.DT, n, c)
	if studentLogits.DT.Backing() == tensor.F32 {
		return klDistill(tensor.Of[float32](studentLogits), tensor.Of[float32](teacherProbs),
			tensor.Of[float32](grad), n, c, temperature), grad
	}
	return klDistill(studentLogits.Data, tensor.Of[float64](teacherProbs), grad.Data, n, c, temperature), grad
}

func klDistill[F tensor.Float](student, teacher, grad []F, n, c int, temperature float64) float64 {
	t := temperature
	var total float64
	inv := 1.0 / float64(n)
	scaled := tensor.GetStorage[F](c)
	defer tensor.PutStorage(scaled)
	for i := 0; i < n; i++ {
		srow := student[i*c : (i+1)*c]
		trow := teacher[i*c : (i+1)*c]
		for j := range srow {
			scaled[j] = srow[j] / F(t)
		}
		lse := tensor.LogSumExpOf(scaled)
		grow := grad[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			logPs := scaled[j] - lse
			ps := math.Exp(float64(logPs))
			pt := float64(trow[j])
			if pt > 0 {
				total += pt * (math.Log(pt) - float64(logPs))
			}
			// d(T²·KL)/dlogit = T·(ps − pt), averaged over the batch.
			grow[j] = F(t * (ps - pt) * inv)
		}
	}
	return total * t * t * inv
}

// SoftmaxWithTemperature returns softmax(logits/T) row-wise as a new tensor
// (in the logits' dtype).
func SoftmaxWithTemperature(logits *tensor.Tensor, t float64) *tensor.Tensor {
	out := logits.Clone()
	out.ScaleInPlace(1 / t)
	out.SoftmaxRowsInPlace()
	return out
}
