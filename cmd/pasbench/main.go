// Command pasbench regenerates the paper's tables and figures (and the
// extension experiments) from the experiment registry.
//
// Usage:
//
//	pasbench -exp all                 # run everything, print text tables
//	pasbench -exp fig4 -seeds 12      # one figure at higher replication
//	pasbench -exp fig6 -csv out/      # also write long-form CSV
//	pasbench -exp all -parallel 8     # fan runs out over 8 workers
//	pasbench -exp ext-scale           # 100/1k/10k-node scale sweep
//	pasbench -scenario scale-1k       # generic sweep over one registry scenario
//	pasbench -scenario paper -predictor kalman   # same sweep, PAS predictor pinned
//	pasbench -list                    # show experiment IDs, scenarios, predictors
//
// Hot-path investigations profile the harness directly, no hand-written
// pprof scaffolding needed:
//
//	pasbench -exp fig4 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	pas "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed flag set of one pasbench invocation.
type config struct {
	expID      string
	scenario   string
	predictor  string
	quick      bool
	csvDir     string
	list       bool
	cpuProfile string
	memProfile string
	opts       pas.ExperimentOptions
}

// parseFlags parses the command line into a config. Errors (including
// -h/-help) are reported on stderr by the flag package.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("pasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		c        config
		seeds    = fs.Int("seeds", 0, "replication count (0 = experiment default)")
		parallel = fs.Int("parallel", 0, "concurrent simulation runs (0 = one per CPU, 1 = serial)")
	)
	fs.StringVar(&c.expID, "exp", "all", "experiment id to run, or 'all'")
	fs.StringVar(&c.scenario, "scenario", "", "run the generic maxSleep sweep over this registry scenario instead of -exp")
	fs.StringVar(&c.predictor, "predictor", "", "pin the PAS arrival predictor of a -scenario sweep (paper, lms, ewma, ar, kalman, switching)")
	fs.BoolVar(&c.quick, "quick", false, "reduced sweeps and replication")
	fs.StringVar(&c.csvDir, "csv", "", "directory to write per-experiment CSV files")
	fs.BoolVar(&c.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	// Zero means the default; a negative count is a usage error, not another
	// spelling of zero.
	var err error
	switch {
	case *seeds < 0:
		err = fmt.Errorf("-seeds %d must not be negative", *seeds)
	case *parallel < 0:
		err = fmt.Errorf("-parallel %d must not be negative", *parallel)
	}
	if err != nil {
		fmt.Fprintf(stderr, "pasbench: %v\n", err)
		return c, err
	}
	c.opts = pas.ExperimentOptions{Quick: c.quick, Parallelism: *parallel}
	if *seeds > 0 {
		c.opts.Seeds = pas.Seeds(*seeds)
	}
	return c, nil
}

// selectExperiments resolves the -scenario / -exp selection against the
// experiment and scenario registries. The two selectors conflict: a
// non-default -exp next to -scenario is rejected rather than silently
// ignored.
func selectExperiments(expID, scenarioName, predictor string) ([]pas.Experiment, error) {
	if scenarioName != "" {
		if expID != "all" {
			return nil, fmt.Errorf("-exp %s and -scenario %s are mutually exclusive; drop one", expID, scenarioName)
		}
		e, err := pas.ScenarioSweepPredictorExperiment(scenarioName, predictor)
		if err != nil {
			return nil, err
		}
		return []pas.Experiment{e}, nil
	}
	if predictor != "" {
		return nil, fmt.Errorf("-predictor needs -scenario; registry experiments pick their own predictors")
	}
	if expID == "all" {
		return pas.Experiments(), nil
	}
	e, ok := pas.LookupExperiment(expID)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (use -list)", expID)
	}
	return []pas.Experiment{e}, nil
}

// run executes one invocation and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}

	if c.list {
		// Both registries are kept in presentation order internally; the
		// listing sorts them so ids/names are findable at a glance.
		exps := pas.Experiments()
		sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "\nscenarios (-scenario):")
		sps := pas.Scenarios()
		sort.Slice(sps, func(i, j int) bool { return sps[i].Name < sps[j].Name })
		for _, sp := range sps {
			fmt.Fprintf(stdout, "%-16s %s\n", sp.Name, sp.Description)
		}
		fmt.Fprintln(stdout, "\npredictors (-predictor):")
		for _, k := range pas.PredictorKinds() {
			sum, _ := pas.DescribePredictor(k)
			fmt.Fprintf(stdout, "%-16s %s\n", k, sum)
		}
		return 0
	}

	targets, err := selectExperiments(c.expID, c.scenario, c.predictor)
	if err != nil {
		fmt.Fprintf(stderr, "pasbench: %v\n", err)
		return 2
	}

	if c.csvDir != "" {
		if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "pasbench: %v\n", err)
			return 1
		}
	}

	stopProfiles, err := startProfiles(c)
	if err != nil {
		fmt.Fprintf(stderr, "pasbench: %v\n", err)
		return 1
	}
	code := runExperiments(c, targets, stdout, stderr)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "pasbench: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// startProfiles starts CPU profiling when configured and returns a stop
// function that finalizes the CPU profile and writes the heap profile.
func startProfiles(c config) (stop func() error, err error) {
	var cpuFile *os.File
	if c.cpuProfile != "" {
		cpuFile, err = os.Create(c.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if c.memProfile != "" {
			f, err := os.Create(c.memProfile)
			if err != nil {
				return err
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// runExperiments executes the selected experiments, printing tables and CSVs.
func runExperiments(c config, targets []pas.Experiment, stdout, stderr io.Writer) int {
	for _, e := range targets {
		start := time.Now()
		res, err := e.Run(c.opts)
		if err != nil {
			fmt.Fprintf(stderr, "pasbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Render())
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if c.csvDir != "" {
			path := filepath.Join(c.csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "pasbench: writing %s: %v\n", path, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}
	}
	return 0
}
