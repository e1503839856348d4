package data

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func smallSpec(seed int64) Spec {
	s := SynthFashion(6, 4, seed)
	return s
}

func mustPartition(t testing.TB, ds *Dataset, k int, opts PartitionOptions) []ClientData {
	t.Helper()
	clients, err := Partition(ds, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return clients
}

// Partition must return errors, not panic, on bad caller input — fedsim
// feeds it straight from user flags.
func TestPartitionRejectsBadInput(t *testing.T) {
	ds := Generate(smallSpec(5))
	if _, err := Partition(ds, 0, PartitionOptions{Kind: Dirichlet}); err == nil {
		t.Fatal("k = 0 must be rejected")
	}
	if _, err := Partition(ds, 3, PartitionOptions{Kind: PartitionKind(99)}); err == nil {
		t.Fatal("unknown partition kind must be rejected")
	}
}

func TestParsePartition(t *testing.T) {
	for s, want := range map[string]PartitionKind{
		"dir": Dirichlet, "dirichlet": Dirichlet, "": Dirichlet,
		"skewed": Skewed, "skew": Skewed,
	} {
		got, err := ParsePartition(s)
		if err != nil || got != want {
			t.Fatalf("ParsePartition(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePartition("zipf"); err == nil {
		t.Fatal("unknown partition name must error")
	}
}

// Regression: a proportion vector poisoned with NaN, Inf or negatives must
// neither spin nor under-assign — every quota row still sums to total.
func TestLargestRemainderQuotaGuardsNaN(t *testing.T) {
	cases := [][]float64{
		{math.NaN(), 0.5, 0.5},
		{math.NaN(), math.NaN(), math.NaN()},
		{math.Inf(1), 0.25, 0.25},
		{-0.5, 0.75, 0.75},
		{0, 0, 0},
		{},
	}
	for i, props := range cases {
		quotas := largestRemainderQuota(props, 12)
		sum := 0
		for _, q := range quotas {
			if q < 0 {
				t.Fatalf("case %d: negative quota %v", i, quotas)
			}
			sum += q
		}
		want := 12
		if len(props) == 0 {
			want = 0
		}
		if sum != want {
			t.Fatalf("case %d: quotas %v sum to %d, want %d", i, quotas, sum, want)
		}
	}
	// Clean proportions keep exact largest-remainder behaviour.
	if got := largestRemainderQuota([]float64{0.5, 0.25, 0.25}, 4); got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("clean quota %v", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallSpec(5))
	b := Generate(smallSpec(5))
	if len(a.Train) != len(b.Train) {
		t.Fatal("sizes differ across identical specs")
	}
	for i := range a.Train {
		if a.Train[i].Y != b.Train[i].Y {
			t.Fatal("labels differ across identical specs")
		}
		for j := range a.Train[i].X {
			if a.Train[i].X[j] != b.Train[i].X[j] {
				t.Fatal("pixels differ across identical specs")
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(smallSpec(1))
	b := Generate(smallSpec(2))
	same := true
	for j := range a.Train[0].X {
		if a.Train[0].X[j] != b.Train[0].X[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateCountsAndRange(t *testing.T) {
	spec := smallSpec(3)
	ds := Generate(spec)
	if len(ds.Train) != spec.NumClasses*spec.TrainPerClass {
		t.Fatalf("train size %d", len(ds.Train))
	}
	if len(ds.Test) != spec.NumClasses*spec.TestPerClass {
		t.Fatalf("test size %d", len(ds.Test))
	}
	counts := make([]int, spec.NumClasses)
	for _, ex := range ds.Train {
		counts[ex.Y]++
		if len(ex.X) != ds.InputDim() {
			t.Fatalf("example dim %d, want %d", len(ex.X), ds.InputDim())
		}
		for _, v := range ex.X {
			if v < -1 || v > 1 {
				t.Fatalf("tanh output out of range: %v", v)
			}
		}
	}
	for c, n := range counts {
		if n != spec.TrainPerClass {
			t.Fatalf("class %d has %d train examples, want %d", c, n, spec.TrainPerClass)
		}
	}
}

func TestGenerateClassesAreSeparable(t *testing.T) {
	// A nearest-centroid classifier on raw pixels should beat chance
	// substantially: the task must be learnable.
	spec := SynthFashion(20, 20, 9)
	ds := Generate(spec)
	dim := ds.InputDim()
	centroids := make([][]float64, spec.NumClasses)
	counts := make([]int, spec.NumClasses)
	for i := range centroids {
		centroids[i] = make([]float64, dim)
	}
	for _, ex := range ds.Train {
		for j, v := range ex.X {
			centroids[ex.Y][j] += v
		}
		counts[ex.Y]++
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for _, ex := range ds.Test {
		best, bestD := -1, math.Inf(1)
		for c := range centroids {
			var d float64
			for j, v := range ex.X {
				dd := v - centroids[c][j]
				d += dd * dd
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == ex.Y {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.Test))
	chance := 1.0 / float64(spec.NumClasses)
	if acc < 2*chance {
		t.Fatalf("nearest-centroid accuracy %.3f too close to chance %.3f; task unlearnable", acc, chance)
	}
}

func TestPublicSplitSize(t *testing.T) {
	pub := PublicSplit(smallSpec(4), 17, 99)
	if len(pub) != 17 {
		t.Fatalf("public split has %d examples, want 17", len(pub))
	}
}

// Property: every partition assigns each client exactly total/k train
// examples and no example is duplicated.
func TestPartitionInvariants(t *testing.T) {
	f := func(seed int64, skew bool) bool {
		spec := smallSpec(7)
		ds := Generate(spec)
		kind := Dirichlet
		if skew {
			kind = Skewed
		}
		const k = 4
		clients, err := Partition(ds, k, PartitionOptions{Kind: kind, Alpha: 0.5, Seed: seed})
		if err != nil || len(clients) != k {
			return false
		}
		per := len(ds.Train) / k
		for _, c := range clients {
			if len(c.Train) != per {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSkewedTwoClasses(t *testing.T) {
	spec := SynthFashion(40, 10, 2)
	ds := Generate(spec)
	clients := mustPartition(t, ds, 5, PartitionOptions{Kind: Skewed, Seed: 3})
	for _, c := range clients {
		classes := map[int]bool{}
		for _, ex := range c.Train {
			classes[ex.Y] = true
		}
		// The skewed partitioner targets two classes; pool exhaustion can
		// add fallback classes, but the dominant two should hold >80%.
		hist := map[int]int{}
		for _, ex := range c.Train {
			hist[ex.Y]++
		}
		top2 := 0
		for pass := 0; pass < 2; pass++ {
			best, bestN := -1, -1
			for cls, n := range hist {
				if n > bestN {
					best, bestN = cls, n
				}
			}
			top2 += bestN
			delete(hist, best)
		}
		if frac := float64(top2) / float64(len(c.Train)); frac < 0.8 {
			t.Fatalf("client %d: top-2 classes cover only %.2f of data", c.ID, frac)
		}
	}
}

func TestPartitionDirichletSkewIncreasesWithSmallAlpha(t *testing.T) {
	spec := SynthFashion(60, 10, 11)
	ds := Generate(spec)
	skewAt := func(alpha float64) float64 {
		clients := mustPartition(t, ds, 6, PartitionOptions{Kind: Dirichlet, Alpha: alpha, Seed: 5})
		hist := LabelHistogram(clients, ds.NumClasses)
		// Mean per-client max-class share.
		var total float64
		for _, row := range hist {
			sum, max := 0, 0
			for _, v := range row {
				sum += v
				if v > max {
					max = v
				}
			}
			total += float64(max) / float64(sum)
		}
		return total / float64(len(hist))
	}
	if skewAt(0.1) <= skewAt(100) {
		t.Fatalf("alpha 0.1 should be more skewed than alpha 100: %.3f vs %.3f", skewAt(0.1), skewAt(100))
	}
}

func TestLabelHistogramSums(t *testing.T) {
	spec := smallSpec(13)
	ds := Generate(spec)
	clients := mustPartition(t, ds, 3, PartitionOptions{Kind: Dirichlet, Alpha: 0.5, Seed: 1})
	hist := LabelHistogram(clients, ds.NumClasses)
	for i, row := range hist {
		sum := 0
		for _, v := range row {
			sum += v
		}
		if sum != len(clients[i].Train) {
			t.Fatalf("histogram row %d sums to %d, want %d", i, sum, len(clients[i].Train))
		}
	}
}

func TestBatchTensorLayout(t *testing.T) {
	examples := []Example{
		{X: []float64{1, 2, 3, 4}, Y: 0},
		{X: []float64{5, 6, 7, 8}, Y: 1},
	}
	x, y := BatchTensor(examples, 1, 2, 2)
	if x.Dim(0) != 2 || x.Dim(1) != 1 || x.Dim(2) != 2 || x.Dim(3) != 2 {
		t.Fatalf("bad shape %v", x.Shape)
	}
	if x.Data[4] != 5 || y[1] != 1 {
		t.Fatal("bad layout")
	}
}

// Property: Batches covers every example exactly once and never yields a
// singleton batch (which the contrastive loss cannot handle) unless the
// entire dataset is one example.
func TestBatchesProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, bsRaw uint8) bool {
		n := int(nRaw%40) + 2
		bs := int(bsRaw%10) + 2
		examples := make([]Example, n)
		for i := range examples {
			examples[i] = Example{X: []float64{float64(i)}, Y: i}
		}
		rng := rand.New(rand.NewSource(seed))
		batches := Batches(examples, bs, rng)
		seen := map[int]bool{}
		for _, b := range batches {
			if len(b) == 1 {
				return false
			}
			for _, ex := range b {
				if seen[ex.Y] {
					return false
				}
				seen[ex.Y] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAugmenterPreservesShapeAndDiffers(t *testing.T) {
	aug := NewAugmenter(1, 4, 4)
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) / 16
	}
	v1, v2 := aug.TwoViews(x, rng)
	if len(v1) != 16 || len(v2) != 16 {
		t.Fatal("augmented views must keep length")
	}
	same := true
	for i := range v1 {
		if v1[i] != v2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two views should differ (noise + shift)")
	}
	// Original must be untouched.
	if x[5] != 5.0/16 {
		t.Fatal("augmenter mutated its input")
	}
}

func TestAugmenterClampsRange(t *testing.T) {
	aug := NewAugmenter(1, 3, 3)
	aug.NoiseStd = 10 // extreme noise to force clamping
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 9)
	out := aug.Apply(x, rng)
	for _, v := range out {
		if v < -1.5 || v > 1.5 {
			t.Fatalf("augmented pixel out of clamp range: %v", v)
		}
	}
}

func TestGammaSamplerMoments(t *testing.T) {
	// Gamma(alpha, 1) has mean alpha; check within sampling tolerance.
	rng := rand.New(rand.NewSource(7))
	for _, alpha := range []float64{0.5, 1, 3} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += gammaSample(alpha, rng)
		}
		mean := sum / n
		if math.Abs(mean-alpha) > 0.1*alpha+0.05 {
			t.Fatalf("Gamma(%v) sample mean %v too far from %v", alpha, mean, alpha)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		p := dirichletSample(7, 0.5, rng)
		var s float64
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative proportion")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Dirichlet sums to %v", s)
		}
	}
}

func TestLargestRemainderQuota(t *testing.T) {
	q := largestRemainderQuota([]float64{0.5, 0.3, 0.2}, 10)
	if q[0]+q[1]+q[2] != 10 {
		t.Fatalf("quota sum %v", q)
	}
	if q[0] != 5 || q[1] != 3 || q[2] != 2 {
		t.Fatalf("quota %v", q)
	}
	// Rounding case.
	q2 := largestRemainderQuota([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 10)
	if q2[0]+q2[1]+q2[2] != 10 {
		t.Fatalf("quota2 sum %v", q2)
	}
}

// A Schedule reused across draws deals what Batches deals, from the same
// draws: its permutation is rng.Perm's, the rng ends where Batches leaves
// it, and a warm Draw allocates nothing.
func TestScheduleMatchesBatches(t *testing.T) {
	var s Schedule
	for _, n := range []int{0, 1, 2, 5, 17, 33, 64} {
		examples := make([]Example, n)
		for i := range examples {
			examples[i] = Example{X: []float64{float64(i)}, Y: i}
		}
		for _, bs := range []int{2, 4, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				ref, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				if p, q := perm(s.perm, n, rng), ref.Perm(n); !slices.Equal(p, q) {
					t.Fatalf("n=%d seed %d: perm %v, rng.Perm %v", n, seed, p, q)
				}
				ref, rng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want, got := Batches(examples, bs, ref), s.Draw(examples, bs, rng)
				if len(got) != len(want) {
					t.Fatalf("n=%d bs=%d seed %d: %d batches, want %d", n, bs, seed, len(got), len(want))
				}
				for i := range want {
					if !slices.EqualFunc(got[i], want[i], func(a, b Example) bool { return a.Y == b.Y }) {
						t.Fatalf("n=%d bs=%d seed %d: batch %d differs", n, bs, seed, i)
					}
				}
				if rng.Int63() != ref.Int63() {
					t.Fatalf("n=%d bs=%d seed %d: Draw left the rng elsewhere than Batches does", n, bs, seed)
				}
			}
		}
	}
	examples := make([]Example, 40)
	rng := rand.New(rand.NewSource(1))
	s.Draw(examples, 16, rng)
	if avg := testing.AllocsPerRun(20, func() { s.Draw(examples, 16, rng) }); avg > 0 {
		t.Fatalf("a warm Draw allocates %.1f objects, want 0", avg)
	}
}
