// Failures: the paper's §5 future work — "we plan to study the impacts of
// sensor failure and imperfect communication channel". This example injects
// both at once: a fraction of nodes dies at random times while the channel
// drops packets uniformly at random, and PAS's detection delay and miss
// count degrade gracefully rather than collapsing.
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
	fmt.Printf("scenario: %s — failures + lossy channel stress\n\n", sc.Name)

	seeds := pas.Seeds(6)
	fmt.Printf("%-10s %-8s %-22s %-14s\n", "failures", "loss", "avg delay (s)", "missed/run")
	for _, failFrac := range []float64{0, 0.1, 0.2, 0.3} {
		for _, loss := range []float64{0, 0.25} {
			cfg := pas.RunConfig{
				Scenario:     sc,
				Protocol:     pas.ProtoPAS,
				Seed:         1,
				FailFraction: failFrac,
				FailBy:       sc.Horizon / 2,
			}
			cfg.PAS = pas.DefaultPASConfig()
			cfg.PAS.SleepMax = 20
			cfg.PAS.SleepIncrement = 4
			if loss > 0 {
				cfg.Loss = pas.LossyDisk{Range: 10, LossProb: loss}
			}
			agg, err := pas.Replicate(cfg, seeds)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10.0f%% %-7.0f%% %8.3f ± %-8.2g %8.1f\n",
				100*failFrac, 100*loss,
				agg.Delay.Mean(), agg.Delay.CI95(), agg.Missed.Mean())
		}
	}

	fmt.Println("\nfailed nodes never detect (they count as missed); losses starve the")
	fmt.Println("predictor of neighbour reports, but surviving sensors keep detecting —")
	fmt.Println("the sleep schedule alone bounds their delay.")
}
