// Heterogeneous: the Table 2 scenario — a fleet over the four mini
// architectures compared across methods (local baseline, FedProto, KT-pFL,
// FedClassAvg) on one dataset under both non-iid partitions.
package main

import (
	"fmt"
	"log"

	"repro/internal/data"
	"repro/internal/experiments"
)

func main() {
	s := experiments.ScaleFromEnv(experiments.Small())
	s.Rounds = min(s.Rounds, 15) // keep the demo quick; cmd/tables runs the full setting
	name := experiments.Fashion

	for _, kind := range []data.PartitionKind{data.Dirichlet, data.Skewed} {
		fmt.Printf("== %s, %s partition, %d clients ==\n", name, kind, s.Clients)
		het, _, err := experiments.NewFleetBuilder(name, kind, "heterogeneous", s.Clients, s)
		if err != nil {
			log.Fatal(err)
		}
		proto, _, err := experiments.NewFleetBuilder(name, kind, "proto", s.Clients, s)
		if err != nil {
			log.Fatal(err)
		}
		for _, method := range []string{
			experiments.MethodBaseline,
			experiments.MethodFedProto,
			experiments.MethodKTpFL,
			experiments.MethodProposed,
		} {
			build := het
			if method == experiments.MethodFedProto {
				build = proto // FedProto needs matching feature dims (milder heterogeneity)
			}
			hist, err := experiments.Run(method, name, build, s.Clients, s, 1.0)
			if err != nil {
				log.Fatal(err)
			}
			fin := experiments.Final(hist)
			fmt.Printf("  %-10s %.4f ± %.4f\n", method, fin.MeanAcc, fin.StdAcc)
		}
		fmt.Println()
	}
}
