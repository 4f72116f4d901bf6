package experiment

import (
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/scenario"
)

func TestDeploymentCacheSharesIdenticalDraws(t *testing.T) {
	field := geom.R(0, 0, 30, 30)
	a := cachedDeployment(12345, field, 30, 10, scenario.DeploymentSpec{}, 2000)
	b := cachedDeployment(12345, field, 30, 10, scenario.DeploymentSpec{}, 2000)
	if a != b {
		t.Error("identical keys returned distinct deployments")
	}
	// Spellings of one draw share it: the hand-built zero spec and the
	// normalized uniform one a scenario compiles to.
	if c := cachedDeployment(12345, field, 30, 10, scenario.DeploymentSpec{Kind: scenario.DeployUniform}, 2000); c != a {
		t.Error("the zero and the explicit uniform spec drew separate deployments")
	}
	// The cached result must be byte-identical to a direct draw.
	direct := deploy.ConnectedUniform(rng.NewSource(12345).Stream("deploy"), field, 30, 10, 2000)
	if len(direct.Positions) != len(a.Positions) {
		t.Fatalf("cached %d positions, direct %d", len(a.Positions), len(direct.Positions))
	}
	for i := range direct.Positions {
		if direct.Positions[i] != a.Positions[i] {
			t.Fatalf("position %d: cached %v, direct %v", i, a.Positions[i], direct.Positions[i])
		}
	}
}

func TestDeploymentCacheKeysAreDistinct(t *testing.T) {
	field := geom.R(0, 0, 30, 30)
	base := cachedDeployment(777, field, 30, 10, scenario.DeploymentSpec{}, 2000)
	if other := cachedDeployment(778, field, 30, 10, scenario.DeploymentSpec{}, 2000); other == base {
		t.Error("different seeds shared a deployment")
	}
	if other := cachedDeployment(777, field, 25, 10, scenario.DeploymentSpec{}, 2000); other == base {
		t.Error("different node counts shared a deployment")
	}
	if other := cachedDeployment(777, field, 30, 12, scenario.DeploymentSpec{}, 2000); other == base {
		t.Error("different radii shared a deployment")
	}
}

func TestDeploymentCacheConcurrentAccess(t *testing.T) {
	field := geom.R(0, 0, 30, 30)
	const workers = 8
	results := make([]*deploy.Deployment, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = cachedDeployment(424242, field, 30, 10, scenario.DeploymentSpec{}, 2000)
		}(w)
	}
	wg.Wait()
	for w, d := range results {
		if d == nil || len(d.Positions) != 30 {
			t.Fatalf("worker %d got bad deployment %v", w, d)
		}
		// Racing workers may each compute the draw, but every result must be
		// identical position-for-position.
		for i := range d.Positions {
			if d.Positions[i] != results[0].Positions[i] {
				t.Fatalf("worker %d diverged at position %d", w, i)
			}
		}
	}
}

func TestDeploymentCacheHitsAcrossProtocols(t *testing.T) {
	// Two protocols at the same (seed, field, nodes, range) — the shape of
	// every sweep — must share one deployment draw, and one compiled
	// topology alongside it.
	h0, m0 := depCacheStats()
	th0, tm0 := topoCacheStats()
	for _, proto := range []string{ProtoPAS, ProtoSAS, ProtoNS} {
		rc := RunConfig{Protocol: proto, Seed: 31337}
		if _, err := RunOnce(rc); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := depCacheStats()
	th1, tm1 := topoCacheStats()
	if gotMisses := m1 - m0; gotMisses > 1 {
		t.Errorf("3 protocols at one seed caused %d cache misses, want ≤ 1", gotMisses)
	}
	if gotHits := h1 - h0; gotHits < 2 {
		t.Errorf("3 protocols at one seed caused %d cache hits, want ≥ 2", gotHits)
	}
	if gotMisses := tm1 - tm0; gotMisses > 1 {
		t.Errorf("3 protocols at one seed compiled the topology %d times, want ≤ 1", gotMisses)
	}
	if gotHits := th1 - th0; gotHits < 2 {
		t.Errorf("3 protocols at one seed caused %d topology cache hits, want ≥ 2", gotHits)
	}
}

func TestTopologyCacheSharesPerRange(t *testing.T) {
	field := geom.R(0, 0, 30, 30)
	dep := cachedDeployment(9001, field, 30, 10, scenario.DeploymentSpec{}, 2000)
	a := cachedTopology(dep, 10)
	if b := cachedTopology(dep, 10); b != a {
		t.Error("identical (deployment, range) returned distinct topologies")
	}
	if c := cachedTopology(dep, 12); c == a {
		t.Error("different ranges shared a topology")
	}
	if a.NodeCount() != dep.N() {
		t.Errorf("topology over %d nodes, deployment has %d", a.NodeCount(), dep.N())
	}
	// The memoized topology must equal a direct compile row-for-row.
	direct := radio.CompileTopology(dep.Field, dep.Positions, 10)
	if direct.Edges() != a.Edges() {
		t.Fatalf("cached topology has %d edges, direct compile %d", a.Edges(), direct.Edges())
	}
	for i := 0; i < dep.N(); i++ {
		gotRow, gotDist := a.Row(i)
		wantRow, wantDist := direct.Row(i)
		if len(gotRow) != len(wantRow) {
			t.Fatalf("row %d: cached %v, direct %v", i, gotRow, wantRow)
		}
		for k := range gotRow {
			if gotRow[k] != wantRow[k] || gotDist[k] != wantDist[k] {
				t.Fatalf("row %d edge %d: cached (%d, %v), direct (%d, %v)",
					i, k, gotRow[k], gotDist[k], wantRow[k], wantDist[k])
			}
		}
	}
}
