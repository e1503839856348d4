package data

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestLazyPartitionerPerClientDeterminism(t *testing.T) {
	ds := Generate(SynthFashion(8, 4, 3))
	opts := PartitionOptions{Kind: Dirichlet, Alpha: 0.5, Seed: 17}
	a, err := NewLazyPartitioner(ds, 50, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLazyPartitioner(ds, 50, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Client i is a pure function of (seed, i): the same split comes back no
	// matter which clients were asked for before, or how often.
	b.Client(42)
	b.Client(3)
	for _, i := range []int{7, 3, 49, 0} {
		if !reflect.DeepEqual(a.Client(i), b.Client(i)) {
			t.Fatalf("client %d differs between query orders", i)
		}
		if !reflect.DeepEqual(a.Client(i), a.Client(i)) {
			t.Fatalf("client %d differs between repeated queries", i)
		}
	}
	if reflect.DeepEqual(a.Client(7).Train, a.Client(8).Train) {
		t.Fatal("distinct clients drew identical training splits")
	}
}

// Client reseeds a recycled generator; the split must be the one a fresh
// source of the same seed draws, for 1 000 ids drawn in parallel, under both
// partition kinds.
func TestLazyPartitionerRecycledRngMatchesFresh(t *testing.T) {
	ds := Generate(SynthFashion(8, 4, 3))
	for _, kind := range []PartitionKind{Dirichlet, Skewed} {
		p, err := NewLazyPartitioner(ds, 1000, PartitionOptions{Kind: kind, Alpha: 0.5, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan int, 1000)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < 1000; i += 8 {
					fresh := p.split(i, rand.New(rand.NewSource(p.splitSeed(i))))
					if !reflect.DeepEqual(p.Client(i), fresh) {
						errs <- i
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for i := range errs {
			t.Fatalf("kind %d: client %d differs from a fresh source's draw", kind, i)
		}
	}
}

func TestLazyPartitionerSizesAndLabels(t *testing.T) {
	ds := Generate(SynthFashion(8, 4, 3))
	p, err := NewLazyPartitioner(ds, 10, PartitionOptions{Kind: Skewed, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClients() != 10 {
		t.Fatalf("NumClients %d", p.NumClients())
	}
	wantTrain, wantTest := len(ds.Train)/10, len(ds.Test)/10
	for i := 0; i < 10; i++ {
		cd := p.Client(i)
		if cd.ID != i || len(cd.Train) != wantTrain || len(cd.Test) != wantTest {
			t.Fatalf("client %d: id %d, %d train, %d test (want %d, %d)",
				i, cd.ID, len(cd.Train), len(cd.Test), wantTrain, wantTest)
		}
		// Skewed gives each client exactly two classes.
		classes := map[int]bool{}
		for _, ex := range cd.Train {
			classes[ex.Y] = true
		}
		if len(classes) > 2 {
			t.Fatalf("skewed client %d drew %d classes", i, len(classes))
		}
	}
}

// More virtual clients than examples: every client still gets data (draws
// are with replacement), so million-client fleets over synthetic datasets
// alias examples instead of starving.
func TestLazyPartitionerOversubscribed(t *testing.T) {
	ds := Generate(SynthFashion(2, 1, 3))
	p, err := NewLazyPartitioner(ds, 10*len(ds.Train), PartitionOptions{Kind: Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(ds.Train), 10*len(ds.Train) - 1} {
		cd := p.Client(i)
		if len(cd.Train) < 1 || len(cd.Test) < 1 {
			t.Fatalf("client %d starved: %d train, %d test", i, len(cd.Train), len(cd.Test))
		}
	}
}

func TestLazyPartitionerRejectsBadInputs(t *testing.T) {
	ds := Generate(SynthFashion(2, 1, 3))
	if _, err := NewLazyPartitioner(ds, 0, PartitionOptions{Kind: Dirichlet}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewLazyPartitioner(ds, 4, PartitionOptions{Kind: PartitionKind(99)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
