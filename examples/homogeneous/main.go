// Homogeneous: the Table 3 scenario — every client runs the same MiniResNet
// and the classifier-only protocol is compared against the "+weight"
// variants that also average extractor weights, plus FedAvg/FedProx.
package main

import (
	"fmt"
	"log"

	"repro/internal/data"
	"repro/internal/experiments"
)

func main() {
	s := experiments.ScaleFromEnv(experiments.Small())
	s.Rounds = min(s.Rounds, 15)
	name := experiments.Fashion
	build, _, err := experiments.NewFleetBuilder(name, data.Dirichlet, "homogeneous", s.Clients, s)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Homogeneous MiniResNet fleet on %s Dir(0.5), %d clients\n\n", name, s.Clients)
	for _, method := range []string{
		experiments.MethodFedAvg,
		experiments.MethodFedProx,
		experiments.MethodKTpFLWeight,
		experiments.MethodProposed,
		experiments.MethodProposedWeight,
	} {
		hist, err := experiments.Run(method, name, build, s.Clients, s, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		fin := experiments.Final(hist)
		fmt.Printf("  %-17s %.4f ± %.4f\n", method, fin.MeanAcc, fin.StdAcc)
	}
}
