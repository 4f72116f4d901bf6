// Command passim runs a single simulation of one protocol over one scenario
// and prints the run metrics (optionally the per-node table), replicates the
// run across seeds in parallel and prints the aggregate, or runs a registry
// experiment end to end.
//
// Usage:
//
//	passim -protocol pas -nodes 30 -range 10 -seed 1
//	passim -protocol sas -scenario gasleak -table
//	passim -protocol pas -maxsleep 30 -threshold 25 -loss 0.2 -fail 0.1
//	passim -protocol pas -reps 16 -parallel 8
//	passim -scenario scale-10k -protocol pas        # 10k-node grid run
//	passim -scenario-file myscenario.json           # hand-written JSON spec
//	passim -exp ext-scale                           # run a registry experiment
//
// Scenario precedence: the named (or JSON) scenario supplies the field,
// stimulus, deployment kind, node count, radio range, channel and failure
// model; explicitly set flags override the matching scenario values.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	pas "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed flag set of one passim invocation.
type config struct {
	scenario     string
	scenarioFile string
	expID        string
	seed         int64
	reps         int
	parallel     int
	table        bool
	protocol     string
	nodes        int
	radioRng     float64
	maxSleep     float64
	thresh       float64
	lossProb     float64
	failFrac     float64
	shards       int
	predictor    string

	// set records which flags were explicitly given, so scenario-supplied
	// values are only overridden on purpose.
	set map[string]bool
}

// parseFlags parses the command line into a config.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("passim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.protocol, "protocol", "pas", "protocol: pas, sas, ns, duty")
	fs.StringVar(&c.scenario, "scenario", "paper", "registry scenario name (see pas.ScenarioNames)")
	fs.StringVar(&c.scenarioFile, "scenario-file", "", "JSON scenario spec file (overrides -scenario)")
	fs.StringVar(&c.expID, "exp", "", "run a registry experiment instead of a single simulation (e.g. ext-scale)")
	fs.IntVar(&c.nodes, "nodes", 30, "deployment size (default: the scenario's)")
	fs.Float64Var(&c.radioRng, "range", 10, "transmission range in m (default: the scenario's)")
	fs.Int64Var(&c.seed, "seed", 1, "simulation seed (first seed with -reps)")
	fs.IntVar(&c.reps, "reps", 1, "replication count; > 1 prints the aggregate over seeds seed..seed+reps-1")
	fs.IntVar(&c.parallel, "parallel", 0, "concurrent replications (0 = one per CPU, 1 = serial)")
	fs.Float64Var(&c.maxSleep, "maxsleep", 10, "maximum sleep interval (s)")
	fs.Float64Var(&c.thresh, "threshold", 20, "PAS alert-time threshold (s)")
	fs.Float64Var(&c.lossProb, "loss", 0, "packet loss probability (0 = the scenario's channel)")
	fs.Float64Var(&c.failFrac, "fail", 0, "fraction of nodes to fail at random times")
	fs.IntVar(&c.shards, "shards", 0, "run on that many spatially sharded kernels (0 or 1 = one kernel); output is bit-identical at any count")
	fs.StringVar(&c.predictor, "predictor", "", "PAS arrival predictor: paper, lms, ewma, ar, kalman, switching (default: the scenario's)")
	fs.BoolVar(&c.table, "table", false, "print the per-node table")
	err := fs.Parse(args)
	c.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	if err == nil {
		if err = c.checkBounds(); err != nil {
			fmt.Fprintf(stderr, "passim: %v\n", err)
		}
	}
	return c, err
}

// checkBounds holds the numeric flags to the bounds a scenario spec
// enforces, so an out-of-range value is a usage error instead of a panic or
// a silently different run.
func (c config) checkBounds() error {
	switch {
	case c.nodes <= 0:
		return fmt.Errorf("-nodes %d must be positive", c.nodes)
	case !(c.lossProb >= 0 && c.lossProb < 1):
		return fmt.Errorf("-loss %g outside [0, 1)", c.lossProb)
	case c.reps < 1:
		return fmt.Errorf("-reps %d must be at least 1", c.reps)
	case c.parallel < 0:
		return fmt.Errorf("-parallel %d must not be negative", c.parallel)
	}
	return nil
}

// loadScenario resolves the -scenario / -scenario-file selection.
func loadScenario(c config) (pas.ScenarioSpec, error) {
	if c.scenarioFile != "" {
		data, err := os.ReadFile(c.scenarioFile)
		if err != nil {
			return pas.ScenarioSpec{}, err
		}
		return pas.DecodeScenario(data)
	}
	name := c.scenario
	if name == "" {
		name = "paper"
	}
	sp, ok := pas.LookupScenario(name)
	if !ok {
		return pas.ScenarioSpec{}, fmt.Errorf("unknown scenario %q (one of %v)", name, pas.ScenarioNames())
	}
	return sp, nil
}

// buildRunConfig compiles the scenario and applies flag overrides.
func buildRunConfig(c config) (pas.RunConfig, error) {
	sp, err := loadScenario(c)
	if err != nil {
		return pas.RunConfig{}, err
	}
	cfg, err := pas.RunConfigFromScenario(sp, c.seed)
	if err != nil {
		return pas.RunConfig{}, err
	}
	// Explicit flags beat scenario values; untouched flags defer to the
	// scenario. The protocol flag applies unless the spec pins a protocol
	// and the flag was left at its default.
	if c.set["protocol"] || sp.Protocol.Name == "" {
		cfg.Protocol = c.protocol
	}
	if c.set["nodes"] {
		cfg.Nodes = c.nodes
	}
	if c.set["range"] {
		// Re-range the scenario's own channel model rather than replacing
		// it: a falloff or lossy spec keeps its physics at the new range.
		cfg.Range = c.radioRng
		sp.Radio.Range = c.radioRng
		if sp.Radio.Reliable > c.radioRng {
			sp.Radio.Reliable = c.radioRng
		}
		if cfg.Loss, err = sp.Radio.Model(); err != nil {
			return pas.RunConfig{}, err
		}
	}
	if c.set["maxsleep"] || sp.Protocol.MaxSleep == 0 {
		cfg.PAS.SleepMax = c.maxSleep
		cfg.SAS.SleepMax = c.maxSleep
		// The ramp follows the cap, but never clobber an increment the spec
		// pinned on its own unless the flag was explicitly given.
		if c.set["maxsleep"] || sp.Protocol.SleepIncrement == 0 {
			cfg.PAS.SleepIncrement = c.maxSleep / 5
			cfg.SAS.SleepIncrement = c.maxSleep / 5
		}
	}
	if c.set["threshold"] || sp.Protocol.AlertThreshold == 0 {
		cfg.PAS.AlertThreshold = c.thresh
	}
	if c.set["predictor"] {
		// An explicit flag beats the scenario's predictor section;
		// -predictor paper restores the default estimator.
		if _, ok := pas.DescribePredictor(c.predictor); !ok {
			return pas.RunConfig{}, fmt.Errorf("unknown predictor %q (one of %v)", c.predictor, pas.PredictorKinds())
		}
		cfg.PAS.Predictor = pas.PredictorConfig{Kind: c.predictor}
	}
	if c.set["loss"] {
		// Explicit -loss replaces the scenario's channel outright; -loss 0
		// restores the perfect unit disk.
		if c.lossProb > 0 {
			cfg.Loss = pas.LossyDisk{Range: cfg.Range, LossProb: c.lossProb}
		} else {
			cfg.Loss = pas.UnitDisk{Range: cfg.Range}
		}
	}
	if c.set["fail"] {
		cfg.FailFraction = c.failFrac
	}
	if c.set["shards"] {
		cfg.Shards = c.shards
	}
	return cfg, nil
}

// replicationSeeds lists the seeds of a -reps invocation.
func replicationSeeds(first int64, reps int) []int64 {
	seeds := make([]int64, reps)
	for i := range seeds {
		seeds[i] = first + int64(i)
	}
	return seeds
}

// runExperiment executes -exp: one registry experiment, rendered to stdout.
func runExperiment(c config, stdout, stderr io.Writer) int {
	exp, ok := pas.LookupExperiment(c.expID)
	if !ok {
		fmt.Fprintf(stderr, "passim: unknown experiment %q\n", c.expID)
		return 2
	}
	opts := pas.ExperimentOptions{Parallelism: c.parallel}
	if c.set["reps"] || c.set["seed"] {
		// Explicit -seed/-reps (including -reps 1) must reach the
		// experiment; otherwise they would be silently ignored.
		opts.Seeds = replicationSeeds(c.seed, c.reps)
	}
	return execute(stderr, func() error {
		res, err := exp.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Fprintln(stdout, res.Render())
		return nil
	})
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
	if c.expID != "" {
		// -exp runs registry experiments on their own built-in workloads and
		// configurations; every single-run flag would be silently dropped,
		// so reject them (only -seed/-reps/-parallel carry over).
		for _, conflict := range []string{"scenario", "scenario-file", "table",
			"protocol", "nodes", "range", "maxsleep", "threshold", "loss", "fail", "shards", "predictor"} {
			if c.set[conflict] {
				fmt.Fprintf(stderr, "passim: -exp and -%s are mutually exclusive; drop one\n", conflict)
				return 2
			}
		}
		return runExperiment(c, stdout, stderr)
	}
	if c.reps > 1 && c.table {
		fmt.Fprintln(stderr, "passim: -table needs a single run; drop -reps or run one seed")
		return 2
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		fmt.Fprintf(stderr, "passim: %v\n", err)
		return 2
	}

	if c.reps > 1 {
		return execute(stderr, func() error {
			agg, err := pas.ReplicateParallel(cfg, replicationSeeds(c.seed, c.reps), c.parallel)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "scenario %-10s protocol %-5s nodes %d range %.0fm seeds %d..%d\n",
				cfg.Scenario.Name, cfg.Protocol, cfg.Nodes, cfg.Range, c.seed, c.seed+int64(c.reps)-1)
			fmt.Fprintln(stdout, agg.String())
			return nil
		})
	}

	return execute(stderr, func() error {
		report, err := pas.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "scenario %-10s protocol %-5s nodes %d range %.0fm seed %d\n",
			cfg.Scenario.Name, cfg.Protocol, cfg.Nodes, cfg.Range, c.seed)
		fmt.Fprintln(stdout, report)
		if c.table {
			fmt.Fprint(stdout, report.Table())
		}
		return nil
	})
}

// execute runs one simulation action, converting library panics — infeasible
// deployments (disconnected uniform draws, saturated poisson specs) and
// similar spec errors surface as panics by design — into clean CLI errors
// instead of goroutine dumps.
func execute(stderr io.Writer, fn func() error) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "passim: %v\n", r)
			code = 1
		}
	}()
	if err := fn(); err != nil {
		fmt.Fprintf(stderr, "passim: %v\n", err)
		return 1
	}
	return 0
}
