// Pollutant: the paper's motivating scenario — a liquid pollutant spreading
// over a monitored field — modelled with the advection–diffusion PDE plume
// instead of an analytic front, so the boundary is irregular and numerically
// derived. Compares PAS against SAS and NS on the same deployment.
package main

import (
	"fmt"
	"log"

	pas "repro"
)

func main() {
	sc, err := pas.ScenarioByName("plume", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %s (%s)\n", sc.Name, sc.Description)
	fmt.Printf("field %v, horizon %.0f s\n\n", sc.Field, sc.Horizon)

	seeds := pas.Seeds(5)
	for _, proto := range []string{pas.ProtoNS, pas.ProtoPAS, pas.ProtoSAS} {
		cfg := pas.RunConfig{Scenario: sc, Protocol: proto}
		cfg.PAS = pas.DefaultPASConfig()
		cfg.PAS.SleepMax = 20
		cfg.PAS.SleepIncrement = 4
		cfg.SAS = pas.DefaultSASConfig()
		cfg.SAS.SleepMax = 20
		cfg.SAS.SleepIncrement = 4
		agg, err := pas.Replicate(cfg, seeds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s %v\n", proto, agg.String())
	}

	fmt.Println("\nexpected shape: NS detects with zero delay at maximum energy; PAS and")
	fmt.Println("SAS save energy at bounded delay. On this decelerating diffusive front")
	fmt.Println("the two adaptive protocols run close together: both extrapolate past")
	fmt.Println("front speeds linearly, which overestimates a slowing plume, so PAS's")
	fmt.Println("directional refinement buys little — its advantage (paper Fig. 4) is")
	fmt.Println("specific to fronts that keep their pace.")
}
