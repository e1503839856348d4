package models_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// slabBits returns the bits of a model's value slab and buffers.
func slabBits(m *models.SplitModel) (vals, bufs []uint64) {
	v, _ := nn.Flat(m.Params())
	return f64bits(v.AppendFloat64s(nil)), f64bits(nn.AppendFlatBuffers(nil, m.Buffers()))
}

func f64bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// trainedClient wraps m in a client over part, with fixed RNG streams and a
// fresh Adam, and trains it for one TrainEpochs epoch.
func trainedClient(m *models.SplitModel, part data.ClientData, ds *data.Dataset) *fl.Client {
	rng, src := xrand.NewRand(9)
	c := &fl.Client{
		Model: m, Train: part.Train, Test: part.Test,
		Aug: data.NewAugmenter(ds.C, ds.H, ds.W), Rng: rng, Src: src,
		Optimizer: opt.NewAdam(0.01),
	}
	fl.TrainEpochs([]*fl.Client{c}, 8, 1, fl.Objective{})
	return c
}

// A recycled model that New takes again is bit-identical to one New builds
// from scratch: for every architecture, dtype and two widths, a model that
// trained, was recycled and then had its slabs, running statistics and
// every slice and view header its layers retain NaN-primed comes back with
// the value slab and buffers of a fresh build from the same seed, and one
// TrainEpochs epoch from each gives the same bits. A recycled
// model serves only its own config.
func TestPooledModelMatchesFresh(t *testing.T) {
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	parts, err := data.Partition(ds, 2, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	archs := []models.Arch{models.ArchMLP, models.ArchAlexNet, models.ArchResNet, models.ArchShuffleNet, models.ArchGoogLeNet, models.ArchCNN2}
	for _, arch := range archs {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
			for _, width := range []int{1, 2} {
				t.Run(fmt.Sprintf("%v/%v/w%d", arch, dt, width), func(t *testing.T) {
					models.DrainFree()
					defer models.DrainFree()
					cfg := models.Config{Arch: arch, InC: ds.C, InH: ds.H, InW: ds.W, FeatDim: 16, NumClasses: ds.NumClasses, Width: width, DType: dt}
					fresh := models.New(cfg, xrand.New(7))
					wantV, wantB := slabBits(fresh)

					used := models.New(cfg, xrand.New(3))
					trainedClient(used, parts[0], ds)
					used.Recycle()
					models.PrimeNaN(used)
					pooled := models.New(cfg, xrand.New(7))
					if pooled != used {
						t.Fatal("New built a model with a recycled one of its config free")
					}
					gotV, gotB := slabBits(pooled)
					if !slices.Equal(gotV, wantV) {
						t.Error("a recycled model's values differ from a fresh build's")
					}
					if !slices.Equal(gotB, wantB) {
						t.Error("a recycled model's buffers differ from a fresh build's")
					}

					want, got := trainedClient(fresh, parts[1], ds), trainedClient(pooled, parts[1], ds)
					wantV, wantB = slabBits(want.Model)
					gotV, gotB = slabBits(got.Model)
					if !slices.Equal(gotV, wantV) || !slices.Equal(gotB, wantB) {
						t.Error("an epoch from a recycled model differs from one from a fresh build")
					}
					if a, b := want.EvalAccuracy(), got.EvalAccuracy(); a != b {
						t.Errorf("accuracy %v from a recycled model, %v from a fresh build", b, a)
					}

					pooled.Recycle()
					others := []models.Config{cfg, cfg, cfg, cfg, cfg, cfg, cfg}
					others[0].Arch = (arch + 1) % models.ArchCNN2
					others[1].Width++
					others[2].DType = (dt + 1) % 3
					others[3].FeatDim++
					others[4].NumClasses++
					others[5].InH, others[5].InW = 8, 8
					others[6].Hidden = 5
					for _, o := range others {
						if models.New(o, xrand.New(7)) == pooled {
							t.Fatalf("a recycled %+v model served config %+v", cfg, o)
						}
					}
					if models.New(cfg, xrand.New(7)) != pooled {
						t.Fatal("the recycled model left the free list for another config")
					}
				})
			}
		}
	}
}

// The free list serves concurrent builds and recycles — the client store
// builds outside its lock while an eviction may recycle — and never hands
// one model to two holders at once.
func TestFreeListConcurrentUse(t *testing.T) {
	models.DrainFree()
	defer models.DrainFree()
	cfg := models.Config{Arch: models.ArchMLP, InC: 1, InH: 4, InW: 4, FeatDim: 4, NumClasses: 3, Hidden: 5}
	var held sync.Map
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				m := models.New(cfg, xrand.New(int64(g*100+i)))
				if _, dup := held.LoadOrStore(m, g); dup {
					t.Error("one model handed to two holders at once")
					return
				}
				held.Delete(m)
				m.Recycle()
			}
		}()
	}
	wg.Wait()
}
