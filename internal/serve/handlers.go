package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/store"
)

// RunSummary is the headline report of one simulation in the wire shape.
// FirstDeath is a pointer so runs where no node exhausted its battery omit
// the field instead of emitting +Inf (which JSON cannot represent).
type RunSummary struct {
	AvgDelay      float64  `json:"avgDelay"`
	P95Delay      float64  `json:"p95Delay"`
	MaxDelay      float64  `json:"maxDelay"`
	AvgEnergyJ    float64  `json:"avgEnergyJ"`
	AvgDuty       float64  `json:"avgDuty"`
	Detected      int      `json:"detected"`
	Reached       int      `json:"reached"`
	Missed        int      `json:"missed"`
	Messages      int      `json:"messages"`
	BatteryDeaths int      `json:"batteryDeaths,omitempty"`
	FirstDeath    *float64 `json:"firstDeath,omitempty"`
}

// summarize projects a run report onto the wire shape.
func summarize(rep metrics.RunReport) RunSummary {
	out := RunSummary{
		AvgDelay:      rep.AvgDelay,
		P95Delay:      rep.P95Delay,
		MaxDelay:      rep.MaxDelay,
		AvgEnergyJ:    rep.AvgEnergyJ,
		AvgDuty:       rep.AvgDuty,
		Detected:      rep.Detected,
		Reached:       rep.Reached,
		Missed:        rep.Missed,
		Messages:      rep.Messages,
		BatteryDeaths: rep.BatteryDeaths,
	}
	if !math.IsInf(rep.FirstDeath, 1) {
		fd := rep.FirstDeath
		out.FirstDeath = &fd
	}
	return out
}

// RunResponse is the body of POST /v1/runs.
type RunResponse struct {
	// Key is the content address of this result.
	Key string `json:"key"`
	// Scenario/Protocol/Seed echo the resolved request.
	Scenario string     `json:"scenario"`
	Protocol string     `json:"protocol"`
	Seed     int64      `json:"seed"`
	Report   RunSummary `json:"report"`
}

// MeanCI is one replicated metric: mean and 95% CI half-width across seeds.
type MeanCI struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

// ReplicateResponse is the body of POST /v1/replicate. FirstDeath is
// right-censored at the horizon for runs where no node died, so it is always
// finite.
type ReplicateResponse struct {
	Key           string  `json:"key"`
	Scenario      string  `json:"scenario"`
	Protocol      string  `json:"protocol"`
	Seeds         []int64 `json:"seeds"`
	Delay         MeanCI  `json:"delay"`
	Energy        MeanCI  `json:"energy"`
	Duty          MeanCI  `json:"duty"`
	Missed        MeanCI  `json:"missed"`
	Messages      MeanCI  `json:"messages"`
	MaxDelay      MeanCI  `json:"maxDelay"`
	BatteryDeaths MeanCI  `json:"batteryDeaths"`
	FirstDeath    MeanCI  `json:"firstDeath"`
}

// ScenarioInfo is one registry entry of GET /v1/scenarios.
type ScenarioInfo struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Nodes       int     `json:"nodes"`
	Horizon     float64 `json:"horizon"`
	// Hash is the content hash of the canonical spec — the same value the
	// run/replicate keys are derived from.
	Hash string `json:"hash"`
}

// simCall is one validated simulation request in its journal form (mode,
// content key, canonical spec, seed list, shards hint), with the decoded spec
// its computation runs and the deadline a synchronous caller waits under.
type simCall struct {
	store.JobEntry
	sp      scenario.Scenario
	timeout time.Duration
}

// parse is the request parser of all three simulation endpoints: decode
// (unknown fields rejected, so typos fail loudly), resolve the spec,
// materialize the seed list, canonicalize, check the shards hint, derive the
// content key. mode is the endpoint's; POST /v1/jobs passes "" and reads the
// mode from the body.
func (s *Server) parse(r *http.Request, mode string) (simCall, error) {
	var req jobRequest
	var into any = &req.simRequest
	if mode == "" {
		into = &req
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return simCall{}, badRequest("decoding request: %v", err)
	}
	if mode == "" {
		if mode = cmp.Or(req.Mode, "run"); mode != "run" && mode != "replicate" {
			return simCall{}, badRequest(`unknown mode %q ("run" or "replicate")`, mode)
		}
	}
	sp, err := s.resolveSpec(req.simRequest)
	if err != nil {
		return simCall{}, err
	}
	seeds := []int64{req.Seed}
	if mode == "replicate" {
		if seeds, err = resolveSeeds(req.simRequest); err != nil {
			return simCall{}, err
		}
	}
	canon, err := scenario.Canonical(sp)
	if err != nil {
		return simCall{}, badRequest("%v", err)
	}
	if err := checkShards(sp, req.Shards); err != nil {
		return simCall{}, err
	}
	return simCall{
		JobEntry: store.JobEntry{Mode: mode, Key: resultKey(s.cfg.Version, mode, canon, seeds...),
			Spec: canon, Seeds: seeds, Shards: req.Shards},
		sp:      sp,
		timeout: s.timeout(req.simRequest),
	}, nil
}

// handleSim serves a synchronous simulation endpoint (POST /v1/runs with
// mode "run", POST /v1/replicate with "replicate"): an unjournaled submit
// plus a wait under the request deadline.
func (s *Server) handleSim(mode string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		call, err := s.parse(r, mode)
		if err != nil {
			s.writeError(w, err)
			return
		}
		start := time.Now()
		body, tier, c, err := s.submit(&call, false)
		if c != nil {
			ctx, cancel := context.WithTimeout(r.Context(), call.timeout)
			body, err = s.wait(ctx, c)
			cancel()
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		if tier == "miss" {
			s.stats.cacheMisses.Add(1)
		} else {
			s.stats.cacheHits.Add(1)
		}
		if tier == "hit-disk" {
			s.stats.diskHits.Add(1)
		}
		s.writeBody(w, start, call.Key, body, tier)
	}
}

// compute runs the simulation behind c. It is a pure function of c's key —
// identical calls produce byte-identical bodies — which is what lets the
// body live under its content address. The shards hint is an execution
// detail only: sharded output is bit-identical to serial, so it is absent
// from the key.
func (c *simCall) compute(ctx context.Context) ([]byte, error) {
	if c.Mode == "replicate" {
		return c.replicate(ctx)
	}
	var seed int64 // a journal entry without seeds replays as seed 0
	if len(c.Seeds) > 0 {
		seed = c.Seeds[0]
	}
	rc, err := experiment.FromScenario(c.sp, seed)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	rc.Shards = c.Shards
	rep, err := experiment.RunOnceContext(ctx, rc)
	if err != nil {
		return nil, err
	}
	return marshalBody(RunResponse{
		Key:      c.Key,
		Scenario: c.sp.Name,
		Protocol: rc.Protocol,
		Seed:     seed,
		Report:   summarize(rep),
	})
}

// replicate computes one spec × seed list replication. Seeds run serially
// on the one admitted worker slot — a single replicate cannot monopolize the
// pool — and each seed rebuilds the stimulus, so seed-drawn stimuli
// (anisotropic harmonics) vary per seed exactly as in a CLI replication. The
// per-seed progress is scaled into [i/n, (i+1)/n] so a job-status stream
// sees one monotone ramp across the whole replication.
func (c *simCall) replicate(ctx context.Context) ([]byte, error) {
	var agg metrics.Aggregate
	var proto string
	n := float64(len(c.Seeds))
	for i, seed := range c.Seeds {
		rc, err := experiment.FromScenario(c.sp, seed)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		rc.Shards = c.Shards
		proto = rc.Protocol
		seedCtx := ctx
		if outer := node.ProgressFromContext(ctx); outer != nil {
			base := float64(i)
			seedCtx = node.WithProgress(ctx, func(now, horizon float64) {
				outer((base+now/horizon)/n, 1)
			})
		}
		rep, err := experiment.RunOnceContext(seedCtx, rc)
		if err != nil {
			return nil, err
		}
		agg.Add(rep)
	}
	return marshalBody(ReplicateResponse{
		Key:           c.Key,
		Scenario:      c.sp.Name,
		Protocol:      proto,
		Seeds:         c.Seeds,
		Delay:         meanCI(agg.Delay),
		Energy:        meanCI(agg.Energy),
		Duty:          meanCI(agg.Duty),
		Missed:        meanCI(agg.Missed),
		Messages:      meanCI(agg.Msgs),
		MaxDelay:      meanCI(agg.MaxDel),
		BatteryDeaths: meanCI(agg.Deaths),
		FirstDeath:    meanCI(agg.FirstDeath),
	})
}

// checkShards validates the shards execution hint up front, so a spec that
// cannot run on that many kernels is a 400 at submit time rather than a late
// compute failure.
func checkShards(sp scenario.Scenario, shards int) error {
	if shards < 0 {
		return badRequest("negative shards %d", shards)
	}
	if shards == 0 {
		return nil
	}
	rc, err := experiment.FromScenario(sp, 1)
	if err != nil {
		return badRequest("%v", err)
	}
	rc.Shards = shards
	if err := experiment.Shardable(rc); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

// maxReplicateSeeds bounds one replicate request; larger studies should be
// split so backpressure and deadlines stay meaningful per request.
const maxReplicateSeeds = 64

// resolveSeeds materializes the replicate seed list: explicit seeds win,
// then reps (seeds 1..reps), then the harness-standard 8 replications.
func resolveSeeds(req simRequest) ([]int64, error) {
	if len(req.Seeds) > 0 && req.Reps > 0 {
		return nil, badRequest(`request carries both "seeds" and "reps"; send one`)
	}
	if len(req.Seeds) > maxReplicateSeeds || req.Reps > maxReplicateSeeds {
		return nil, badRequest("at most %d seeds per replicate request", maxReplicateSeeds)
	}
	if req.Reps < 0 {
		return nil, badRequest("negative reps %d", req.Reps)
	}
	if len(req.Seeds) > 0 {
		return req.Seeds, nil
	}
	reps := req.Reps
	if reps == 0 {
		reps = 8
	}
	return experiment.DefaultSeeds(reps), nil
}

// meanCI projects an accumulator onto the wire shape.
func meanCI(a stats.Accumulator) MeanCI {
	return MeanCI{Mean: a.Mean(), CI95: a.CI95()}
}

// handleScenarios serves GET /v1/scenarios: the registry sorted by name,
// each entry with its canonical content hash.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	all := scenario.All()
	infos := make([]ScenarioInfo, 0, len(all))
	for _, sp := range all {
		hash, err := scenario.Hash(sp)
		if err != nil {
			s.writeError(w, err)
			return
		}
		infos = append(infos, ScenarioInfo{
			Name:        sp.Name,
			Description: sp.Description,
			Nodes:       sp.Nodes,
			Horizon:     sp.Horizon,
			Hash:        hash,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	s.writeJSON(w, map[string]any{"scenarios": infos})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.Stats())
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// writeJSON emits v as a JSON response body.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	body, err := marshalBody(v)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Write(body)
}

// marshalBody renders a response body: compact JSON with a trailing newline.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
