package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// topkClasses are the input shapes the selection must get right: the typical
// ones, and every one a radix select on bit patterns could get wrong — long
// runs of equal keys, keys that differ only in their last digit, the three
// kinds of non-number, and zeros of both signs. A class draws frame f of an
// n-element stream; successive frames of one stream are what the delta
// residuals are taken between.
var topkClasses = []struct {
	name string
	draw func(rng *rand.Rand, n, f int) []float64
}{
	{"gaussian", func(rng *rand.Rand, n, f int) []float64 {
		return fill(n, func(int) float64 { return rng.NormFloat64() })
	}},
	{"log-normal residuals", func(rng *rand.Rand, n, f int) []float64 {
		w := rand.New(rand.NewSource(7)) // the same weights under every frame
		return fill(n, func(int) float64 {
			return 0.05*w.NormFloat64() + float64(f)*sign(rng)*1e-3*math.Exp(rng.NormFloat64())
		})
	}},
	{"all zero", func(rng *rand.Rand, n, f int) []float64 {
		return make([]float64, n)
	}},
	{"all equal", func(rng *rand.Rand, n, f int) []float64 {
		return fill(n, func(int) float64 { return 1.5 * float64(f+1) })
	}},
	{"k-th value tied", func(rng *rand.Rand, n, f int) []float64 {
		// A few large values, then a run of one value wider than what is
		// left of k: the tie rule decides most of the kept set.
		return fill(n, func(int) float64 {
			switch u := rng.Float64(); {
			case u < 0.02:
				return sign(rng) * (2 + rng.Float64())
			case u < 0.6:
				return float64(f + 1)
			}
			return 0.5 * rng.Float64()
		})
	}},
	{"single binade", func(rng *rand.Rand, n, f int) []float64 {
		return fill(n, func(int) float64 { return sign(rng) * (1 + rng.Float64()) / 1024 })
	}},
	{"denormals", func(rng *rand.Rand, n, f int) []float64 {
		return fill(n, func(int) float64 {
			return sign(rng) * math.Float64frombits(uint64(rng.Intn(1000)))
		})
	}},
	{"inf among finite", func(rng *rand.Rand, n, f int) []float64 {
		return fill(n, func(int) float64 {
			if rng.Intn(40) == 0 {
				return math.Inf(rng.Intn(2)*2 - 1)
			}
			return rng.NormFloat64()
		})
	}},
	{"nan heavy", func(rng *rand.Rand, n, f int) []float64 {
		return fill(n, func(int) float64 {
			if rng.Intn(100) < 97 {
				return math.NaN()
			}
			return rng.NormFloat64()
		})
	}},
	{"all nan", func(rng *rand.Rand, n, f int) []float64 {
		return fill(n, func(int) float64 { return math.NaN() })
	}},
	{"negative zeros", func(rng *rand.Rand, n, f int) []float64 {
		// Fewer non-zeros than any k in use, so zeros of both signs are
		// kept, land in the basis, and are subtracted from zeros of both
		// signs in the next frame.
		return fill(n, func(int) float64 {
			switch u := rng.Intn(50); {
			case u == 0:
				return rng.NormFloat64()
			case u <= 20:
				return math.Copysign(0, -1)
			}
			return 0
		})
	}},
}

func fill(n int, at func(i int) float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = at(i)
	}
	return v
}

func sign(rng *rand.Rand) float64 { return float64(1 - 2*rng.Intn(2)) }

// sortOracle is the reference the encoder is held to, written the long way
// round: it ranks every index with a stable sort on |r| (NaN last), keeps
// the first k in index order, and builds the frame, the vector a receiver
// decodes and the basis both ends hold afterwards, element by element, the
// way the frame grammar and DESIGN §13's rules state them. base is nil for a
// frame that is not a delta.
func sortOracle(spec Spec, kind uint32, v, base []float64, tag uint64) (frame []byte, kept []int, decoded, newBase []float64) {
	n := len(v)
	r := append([]float64(nil), v...)
	for i := range base {
		r[i] = v[i] - base[i]
	}
	mag := func(x float64) float64 {
		if math.IsNaN(x) {
			return -1
		}
		return math.Abs(x)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return mag(r[order[a]]) > mag(r[order[b]]) })
	kept = append([]int(nil), order[:topkCount(spec.Frac, n)]...)
	sort.Ints(kept)

	if base != nil {
		frame = appendHeader(nil, Delta, kind, n)
		frame = binary.LittleEndian.AppendUint64(frame, tag)
		frame = append(frame, byte(TopK))
	} else {
		frame = appendHeader(nil, TopK, kind, n)
	}
	frame = append(frame, byte(spec.Value))
	frame = binary.AppendUvarint(frame, uint64(len(kept)))
	var scale float64
	if spec.Value == I8 {
		for _, ix := range kept {
			if a := math.Abs(r[ix]); a > scale && !math.IsInf(a, 1) {
				scale = a
			}
		}
		scale /= 127
		frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(scale))
	}
	for j, ix := range kept {
		if j > 0 {
			ix -= kept[j-1]
		}
		frame = binary.AppendUvarint(frame, uint64(ix))
	}
	sparse := make([]float64, n) // the residual a receiver decodes
	for _, ix := range kept {
		switch spec.Value {
		case F32:
			x := float32(r[ix])
			frame = binary.LittleEndian.AppendUint32(frame, math.Float32bits(x))
			sparse[ix] = float64(x)
		case I8:
			q := quantizeI8(r[ix], scale)
			frame = append(frame, byte(q))
			sparse[ix] = float64(q) * scale
		case BF16:
			h := tensor.BF16FromF32(float32(r[ix]))
			frame = binary.LittleEndian.AppendUint16(frame, h)
			sparse[ix] = float64(tensor.BF16ToF32(h))
		default:
			frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(r[ix]))
			sparse[ix] = r[ix]
		}
	}
	if base == nil {
		return frame, kept, sparse, sparse
	}
	// Every element takes the add, the zero residuals too: that is what
	// turns a −0 in the basis into +0.
	newBase = make([]float64, n)
	for i := range newBase {
		newBase[i] = base[i] + sparse[i]
	}
	return frame, kept, newBase, newBase
}

// frameKept reads the kept indices back out of a TOPK frame or a DELTA frame
// with a top-k residual.
func frameKept(t testing.TB, frame []byte) []int {
	t.Helper()
	c, _, _, err := FrameInfo(frame)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[headerSize:]
	if c == Delta {
		body = body[deltaOverhead:]
	}
	inner := Codec(body[0])
	k, sz := binary.Uvarint(body[1:])
	body = body[1+sz:]
	if inner == I8 {
		body = body[8:]
	}
	kept := make([]int, k)
	at := 0
	for j := range kept {
		g, sz := binary.Uvarint(body)
		body = body[sz:]
		at += int(g)
		kept[j] = at
	}
	return kept
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// lockstep sends frames, in order, through the encoder, the decoder and the
// in-process model, each with its own ref when the spec is a delta spec, and
// holds all three to each other bit for bit and to the sort oracle: its kept
// set always, and with exact set its frame bytes, decoded vector and basis
// too. (Without it the inputs may hold NaNs of several payloads, and which
// payload a sum of two keeps is the compiler's choice of operand order.)
func lockstep(t testing.TB, spec Spec, frames [][]float64, exact bool) {
	t.Helper()
	var enc, dec, sim *DeltaRef
	if spec.Delta {
		enc, dec, sim = &DeltaRef{}, &DeltaRef{}, &DeltaRef{}
	}
	for f, v := range frames {
		var base []float64
		var tag uint64
		if spec.Delta && enc.Tag != 0 {
			base, tag = append([]float64(nil), enc.Base...), enc.Tag
		}
		wantFrame, wantKept, wantDecoded, wantBase := sortOracle(spec, 5, v, base, tag)

		sent := append([]float64(nil), v...)
		frame := MarshalSpecInto(nil, spec, 5, sent, enc)
		if i := sameBits(sent, v); i >= 0 {
			t.Fatalf("frame %d: MarshalSpecInto wrote its input at %d", f, i)
		}
		kind, decoded, err := DecodeSpec(nil, frame, dec)
		if err != nil || kind != 5 {
			t.Fatalf("frame %d: decode: kind %d, %v", f, kind, err)
		}
		model := append([]float64(nil), v...)
		if size := RoundTripSpec(spec, model, sim); size != int64(len(frame)) {
			t.Fatalf("frame %d: model prices %d bytes, the frame is %d", f, size, len(frame))
		}

		kept := frameKept(t, frame)
		if len(kept) != len(wantKept) {
			t.Fatalf("frame %d: kept %d elements, oracle keeps %d", f, len(kept), len(wantKept))
		}
		for j := range kept {
			if kept[j] != wantKept[j] {
				t.Fatalf("frame %d: kept[%d] = %d, oracle keeps %d", f, j, kept[j], wantKept[j])
			}
		}
		if i := sameBits(decoded, model); i >= 0 {
			t.Fatalf("frame %d elem %d: decoder %x, model %x", f, i, math.Float64bits(decoded[i]), math.Float64bits(model[i]))
		}
		if spec.Delta {
			if enc.Tag != dec.Tag || enc.Tag != sim.Tag {
				t.Fatalf("frame %d: tags enc %d dec %d model %d", f, enc.Tag, dec.Tag, sim.Tag)
			}
			if i := sameBits(enc.Base, dec.Base); i >= 0 {
				t.Fatalf("frame %d elem %d: encoder basis %x, decoder basis %x", f, i, math.Float64bits(enc.Base[i]), math.Float64bits(dec.Base[i]))
			}
			if i := sameBits(enc.Base, sim.Base); i >= 0 {
				t.Fatalf("frame %d elem %d: encoder basis %x, model basis %x", f, i, math.Float64bits(enc.Base[i]), math.Float64bits(sim.Base[i]))
			}
		}
		if !exact {
			continue
		}
		if !bytes.Equal(frame, wantFrame) {
			t.Fatalf("frame %d: %d frame bytes differ from the oracle's %d", f, len(frame), len(wantFrame))
		}
		if i := sameBits(decoded, wantDecoded); i >= 0 {
			t.Fatalf("frame %d elem %d: decoded %x, oracle %x", f, i, math.Float64bits(decoded[i]), math.Float64bits(wantDecoded[i]))
		}
		if spec.Delta {
			if i := sameBits(enc.Base, wantBase); i >= 0 {
				t.Fatalf("frame %d elem %d: basis %x, oracle %x", f, i, math.Float64bits(enc.Base[i]), math.Float64bits(wantBase[i]))
			}
		}
	}
}

// TestTopKMatchesSortOracle holds the radix select and everything built on
// its result to a sort: for every inner codec, bare and delta, over three
// frames of every input class, and at the sizes where the count of kept
// elements, the lanes of the histogram or the length of the vector are at an
// edge.
func TestTopKMatchesSortOracle(t *testing.T) {
	shapes := []struct {
		n    int
		frac float64
	}{
		{1000, 0.05},
		{64, 0.05},              // the smallest vector the selector sparsifies
		{1000, 1.0 / 65536},     // k = 1
		{1000, 65535.0 / 65536}, // k = n
		{1<<14 + 37, 0.05},      // long enough to count in lanes
	}
	for _, class := range topkClasses {
		for _, shape := range shapes {
			for _, inner := range []Codec{F64, F32, I8, BF16} {
				for _, delta := range []bool{false, true} {
					spec := NewSpec(inner, shape.frac, delta)
					rng := rand.New(rand.NewSource(int64(shape.n)))
					frames := make([][]float64, 3)
					for f := range frames {
						frames[f] = class.draw(rng, shape.n, f)
					}
					t.Run(class.name+"/"+spec.String(), func(t *testing.T) {
						lockstep(t, spec, frames, true)
					})
				}
			}
		}
	}
}

// fuzzSeed is a class's first two frames, eight bytes an element, the form
// FuzzTopKEncode cuts its vectors from.
func fuzzSeed(class int) []byte {
	const n = 24
	rng := rand.New(rand.NewSource(3))
	var data []byte
	for f := 0; f < 2; f++ {
		for _, x := range topkClasses[class].draw(rng, n, f) {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
	}
	return data
}

// FuzzTopKEncode drives the encoder with raw bit patterns, so the fuzzer
// reaches NaN payloads, −0, denormals and infinities directly: data is two
// float64 vectors end to end, sent as three frames — the first, the second,
// the first again — under a top-k delta spec whose density and value codec
// the other two arguments pick. lockstep states the invariants.
func FuzzTopKEncode(f *testing.F) {
	for class := range topkClasses {
		f.Add(fuzzSeed(class), uint16(6554), uint8(class))
	}
	f.Fuzz(func(t *testing.T, data []byte, fracBits uint16, inner uint8) {
		n := len(data) / 16
		if n == 0 {
			return
		}
		exact := true
		vecs := [2][]float64{make([]float64, n), make([]float64, n)}
		for i := 0; i < 2*n; i++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			vecs[i/n][i%n] = x
			exact = exact && !math.IsNaN(x)
		}
		spec := NewSpec(Codec(inner%numValueCodecs), float64(max(fracBits, 1))/fracUnit, true)
		lockstep(t, spec, [][]float64{vecs[0], vecs[1], vecs[0]}, exact)
	})
}
