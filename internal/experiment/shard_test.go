package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/radio"
	"repro/internal/scenario"
)

// TestShardedByteIdentityScale1k is the tentpole acceptance test: a full
// scale-1k PAS run must produce a byte-identical RunReport — every per-node
// metric, every aggregate — at 1, 2, 3, 4 and 8 shards versus the serial
// kernel.
func TestShardedByteIdentityScale1k(t *testing.T) {
	spec, ok := scenario.Lookup("scale-1k")
	if !ok {
		t.Fatal("scale-1k missing from the scenario registry")
	}
	rc, err := FromScenario(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc.Protocol = ProtoPAS

	serial, err := RunOnce(rc)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Detected == 0 {
		t.Fatal("serial scale-1k run detected nothing; workload is vacuous")
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		src := rc
		src.Shards = shards
		got, err := RunOnce(src)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("shards=%d: RunReport differs from serial run", shards)
			if got.Detected != serial.Detected {
				t.Errorf("  Detected: %d vs %d", got.Detected, serial.Detected)
			}
			if got.AvgDelay != serial.AvgDelay {
				t.Errorf("  AvgDelay: %v vs %v", got.AvgDelay, serial.AvgDelay)
			}
			if got.AvgEnergyJ != serial.AvgEnergyJ {
				t.Errorf("  AvgEnergyJ: %v vs %v", got.AvgEnergyJ, serial.AvgEnergyJ)
			}
			if got.Messages != serial.Messages {
				t.Errorf("  Messages: %d vs %d", got.Messages, serial.Messages)
			}
		}
	}
}

// TestShardableGate pins the configurations that must refuse to shard: every
// transmit-path feature that draws shared randomness or mutates remote
// receiver state at transmit time.
func TestShardableGate(t *testing.T) {
	base := RunConfig{Shards: 2}
	if err := Shardable(base); err != nil {
		t.Fatalf("default config should shard: %v", err)
	}
	lossy := base
	lossy.Loss = radio.LossyDisk{Range: 10, LossProb: 0.1}
	if Shardable(lossy) == nil {
		t.Error("lossy channel passed the shard gate")
	}
	coll := base
	coll.Collisions = true
	if Shardable(coll) == nil {
		t.Error("collision modelling passed the shard gate")
	}
	csma := base
	cfg := radio.DefaultCSMA()
	csma.CSMA = &cfg
	if Shardable(csma) == nil {
		t.Error("CSMA passed the shard gate")
	}
	if _, err := RunOnce(lossy); err == nil {
		t.Error("RunOnce on an unshardable config with Shards set did not error")
	}
}

// TestShardableScenarioMatchesCompiledRun pins the spec-level gate to the
// run-level one: for every registry entry and every canonical-form overlay,
// at -1 to 3 shards, ShardableScenario must give the verdict Shardable gives
// on the fully compiled run.
func TestShardableScenarioMatchesCompiledRun(t *testing.T) {
	specs := scenario.All()
	for _, o := range canonicalOverlays {
		sp, err := scenario.Decode([]byte(`{"name":"` + o.name + `",
		  "field":{"Min":{"X":0,"Y":0},"Max":{"X":40,"Y":40}},"nodes":30,"horizon":140,
		  "radio":{"range":10},
		  "stimulus":{"kind":"radial","origin":{"X":0,"Y":20},"speed":0.5,"start":10},` + o.json + `}`))
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		specs = append(specs, sp)
	}
	refused := 0
	for _, sp := range specs {
		rc, err := FromScenario(sp, 1)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		for shards := -1; shards <= 3; shards++ {
			rc.Shards = shards
			got, want := fmt.Sprint(ShardableScenario(sp, shards)), fmt.Sprint(Shardable(rc))
			if got != want {
				t.Errorf("%s at %d shards: ShardableScenario says %q, Shardable of the run %q", sp.Name, shards, got, want)
			}
			if shards >= 2 && want != "<nil>" {
				refused++
			}
		}
	}
	if refused == 0 {
		t.Fatal("no spec was refused at two shards; the comparison is vacuous")
	}
}

// TestShardedBatteryAndFailures pins the construction-time randomness
// contract: battery budgets and legacy random failures draw before the
// shards start, so they must survive sharding byte-identically too.
func TestShardedBatteryAndFailures(t *testing.T) {
	rc := RunConfig{
		Nodes:        120,
		Seed:         7,
		BatteryJ:     2.0,
		FailFraction: 0.2,
	}
	serial, err := RunOnce(rc)
	if err != nil {
		t.Fatal(err)
	}
	sharded := rc
	sharded.Shards = 4
	got, err := RunOnce(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Errorf("sharded battery/failure run differs from serial:\ngot  %+v\nwant %+v", got, serial)
	}
}

// TestOneShardAcceptsSerialConfigs pins that one shard is serial execution:
// configs that cannot split across kernels — lossy channels, collisions and
// CSMA, fault plans, construction-time battery and failure draws — run on
// one shard with a report identical to the Shards 0 run, while the gate
// still refuses the unshardable ones at two shards.
func TestOneShardAcceptsSerialConfigs(t *testing.T) {
	fromRegistry := func(name string) RunConfig {
		t.Helper()
		spec, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("%s missing from the scenario registry", name)
		}
		rc, err := FromScenario(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	cases := []struct {
		name      string
		rc        RunConfig
		shardable bool // may also run on two shards
	}{
		{"harsh", fromRegistry("harsh"), false},
		{"churn", fromRegistry("churn"), false},
		{"drift", fromRegistry("drift"), false},
		{"battery+failures", RunConfig{Nodes: 60, Seed: 3, BatteryJ: 2.0, FailFraction: 0.2}, true},
	}
	for _, c := range cases {
		serial, err := RunOnce(c.rc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		one := c.rc
		one.Shards = 1
		got, err := RunOnce(one)
		if err != nil {
			t.Fatalf("%s: one shard: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("%s: one-shard report differs from the serial one:\ngot  %+v\nwant %+v", c.name, got, serial)
		}
		two := c.rc
		two.Shards = 2
		if err := Shardable(two); (err == nil) != c.shardable {
			t.Errorf("%s: Shardable at two shards = %v, want shardable %v", c.name, err, c.shardable)
		}
	}
}
