// Quickstart: run PAS on the paper's workload (30 nodes, 10 m range, radial
// pollutant front) and print the two headline metrics — average detection
// delay and average per-node energy — next to the always-on baseline.
package main

import (
	"fmt"
	"log"

	pas "repro"
)

func main() {
	sc, err := pas.ScenarioByName("paper", 1)
	if err != nil {
		log.Fatal(err)
	}

	pasReport, err := pas.Run(pas.RunConfig{Scenario: sc, Protocol: pas.ProtoPAS, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	nsReport, err := pas.Run(pas.RunConfig{Scenario: sc, Protocol: pas.ProtoNS, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario: %s (%s)\n\n", sc.Name, sc.Description)
	fmt.Printf("PAS: %v\n", pasReport)
	fmt.Printf("NS:  %v\n\n", nsReport)
	fmt.Printf("PAS uses %.1f%% of the always-on energy at %.2f s average delay.\n",
		100*pasReport.AvgEnergyJ/nsReport.AvgEnergyJ, pasReport.AvgDelay)

	fmt.Println("\nPer-node breakdown (PAS):")
	fmt.Print(pasReport.Table())
}
