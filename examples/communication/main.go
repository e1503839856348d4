// Communication: the Table 5 scenario — per-round traffic measured from the
// live ledger of three runs: full-model sharing (FedAvg), KT-pFL soft
// predictions, and FedClassAvg classifier exchange.
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/models"
)

func main() {
	s := experiments.ScaleFromEnv(experiments.Small())
	s.Rounds = 3
	name := experiments.CIFAR10
	hom, _, err := experiments.NewRotationFleet(name, data.Dirichlet, s.Clients, s, []models.Arch{models.ArchResNet}, nil)
	if err != nil {
		log.Fatal(err)
	}
	het, _, err := experiments.NewHeterogeneousFleet(name, data.Dirichlet, s.Clients, s)
	if err != nil {
		log.Fatal(err)
	}

	type runSpec struct {
		method  string
		factory func() []*fl.Client
	}
	for _, rs := range []runSpec{
		{experiments.MethodFedAvg, hom},
		{experiments.MethodKTpFL, het},
		{experiments.MethodProposed, het},
	} {
		algo, err := experiments.NewAlgorithm(rs.method, name, s)
		if err != nil {
			log.Fatal(err)
		}
		sim := fl.NewSimulation(rs.factory(), fl.Config{Rounds: s.Rounds, BatchSize: s.BatchSize, Seed: s.Seed + 7})
		if _, err := sim.Run(algo); err != nil {
			log.Fatal(err)
		}
		rounds := sim.Ledger.Rounds()
		last := rounds[len(rounds)-1]
		perClientUp := last.UpBytes / int64(s.Clients)
		fmt.Printf("%-16s per-client upload %8d B/round (total up %d B, down %d B over %d rounds)\n",
			rs.method, perClientUp, sim.Ledger.TotalUp(), sim.Ledger.TotalDown(), s.Rounds)
	}

	fmt.Println("\nStatic payload sizes (Table 5):")
	rows, err := experiments.Table5(s, name)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-28s %8d B/round  (%s)\n", r.Method, r.BytesPerRound, r.Detail)
	}

	// Quantized wire codecs: the same FedClassAvg classifier exchange under
	// float64, float32 and int8 framing, measured from the live ledger.
	fmt.Println("\nQuantized codecs (FedClassAvg uplink):")
	var f64Up int64
	for _, codec := range []comm.Codec{comm.F64, comm.F32, comm.I8} {
		algo, err := experiments.NewAlgorithm(experiments.MethodProposed, name, s)
		if err != nil {
			log.Fatal(err)
		}
		sim := fl.NewSimulation(het(), fl.Config{Rounds: s.Rounds, BatchSize: s.BatchSize, Seed: s.Seed + 7, Codec: codec})
		if _, err := sim.Run(algo); err != nil {
			log.Fatal(err)
		}
		up := sim.Ledger.TotalUp()
		if codec == comm.F64 {
			f64Up = up
		}
		fmt.Printf("  %-4s %8d B total up  (%.2fx smaller than f64)\n",
			codec, up, float64(f64Up)/float64(up))
	}

	// Sparse and delta framings: the same exchange with top-k sparsified
	// and delta-framed uploads, reporting the uplink ratio against dense
	// f64 and the final-accuracy cost of the loss. The `framing ...` lines
	// are machine-readable — CI gates on ratio and |accdelta|.
	fmt.Println("\nSparse & delta framings (FedClassAvg uplink):")
	var denseAcc float64
	for _, spec := range []comm.Spec{
		{Value: comm.F64},
		comm.NewSpec(comm.F32, 0.05, false),
		comm.NewSpec(comm.I8, 0, true),
		comm.NewSpec(comm.F32, 0.05, true),
	} {
		algo, err := experiments.NewAlgorithm(experiments.MethodProposed, name, s)
		if err != nil {
			log.Fatal(err)
		}
		sim := fl.NewSimulation(het(), fl.Config{
			Rounds: s.Rounds, BatchSize: s.BatchSize, Seed: s.Seed + 7,
			Codec: spec.Value, TopK: spec.Frac, Delta: spec.Delta,
		})
		hist, err := sim.Run(algo)
		if err != nil {
			log.Fatal(err)
		}
		acc := hist[len(hist)-1].MeanAcc
		up := sim.Ledger.TotalUp()
		if spec.Plain() {
			denseAcc = acc
		}
		fmt.Printf("  framing %-18s up %8d B  ratio %.2f  acc %.4f  accdelta %+.4f\n",
			spec, up, float64(f64Up)/float64(up), acc, acc-denseAcc)
	}
}
