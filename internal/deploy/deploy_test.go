package deploy

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
	"repro/internal/rng"
)

func testStream(name string) *rng.Stream {
	return rng.NewSource(42).Stream(name)
}

func TestUniformRandomInField(t *testing.T) {
	field := geom.R(10, 20, 50, 80)
	d := UniformRandom(testStream("u"), field, 200)
	if d.N() != 200 {
		t.Fatalf("N = %d", d.N())
	}
	for _, p := range d.Positions {
		if !field.Contains(p) {
			t.Fatalf("point %v outside field", p)
		}
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	a := UniformRandom(testStream("d"), geom.R(0, 0, 10, 10), 50)
	b := UniformRandom(testStream("d"), geom.R(0, 0, 10, 10), 50)
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("same stream produced different deployments")
		}
	}
}

func TestGridPlacement(t *testing.T) {
	field := geom.R(0, 0, 10, 10)
	d := Grid(nil, field, 5, 4, 0)
	if d.N() != 20 {
		t.Fatalf("N = %d", d.N())
	}
	// First point at cell center (1, 1.25).
	if !d.Positions[0].ApproxEqual(geom.V(1, 1.25), 1e-12) {
		t.Errorf("first point = %v", d.Positions[0])
	}
	// Jittered grid stays inside the field.
	j := Grid(testStream("g"), field, 5, 4, 0.4)
	for _, p := range j.Positions {
		if !field.Contains(p) {
			t.Fatalf("jittered point %v outside", p)
		}
	}
}

func TestPoissonDiskSpacing(t *testing.T) {
	d := PoissonDisk(testStream("p"), geom.R(0, 0, 100, 100), 60, 8)
	if d.N() < 30 {
		t.Fatalf("only %d darts placed", d.N())
	}
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			if d.Positions[i].Dist(d.Positions[j]) < 8 {
				t.Fatalf("points %d,%d closer than minDist", i, j)
			}
		}
	}
}

// poissonDiskReference is the pre-spatial-hash O(n²) dart thrower; the
// hash-backed implementation must reproduce its layouts draw for draw.
func poissonDiskReference(st *rng.Stream, field geom.Rect, n int, minDist float64) []geom.Vec2 {
	pts := make([]geom.Vec2, 0, n)
	maxTries := 200 * n
	for tries := 0; tries < maxTries && len(pts) < n; tries++ {
		p := geom.V(
			st.Uniform(field.Min.X, field.Max.X),
			st.Uniform(field.Min.Y, field.Max.Y),
		)
		ok := true
		for _, q := range pts {
			if p.Dist2(q) < minDist*minDist {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
		}
	}
	return pts
}

func TestPoissonDiskMatchesLinearReference(t *testing.T) {
	// The spatial hash must not change a single accept/reject decision: same
	// stream, same parameters → byte-identical layouts, across fields whose
	// saturation regimes differ.
	cases := []struct {
		name    string
		field   geom.Rect
		n       int
		minDist float64
	}{
		{"sparse", geom.R(0, 0, 100, 100), 60, 8},
		{"saturated", geom.R(0, 0, 10, 10), 100, 3},
		{"offset field", geom.R(-50, 20, 30, 90), 120, 5},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			got := PoissonDisk(rng.NewSource(seed).Stream("p"), tc.field, tc.n, tc.minDist)
			want := poissonDiskReference(rng.NewSource(seed).Stream("p"), tc.field, tc.n, tc.minDist)
			if len(got.Positions) != len(want) {
				t.Fatalf("%s seed %d: %d darts, reference placed %d", tc.name, seed, len(got.Positions), len(want))
			}
			for i := range want {
				if got.Positions[i] != want[i] {
					t.Fatalf("%s seed %d: dart %d = %v, reference %v", tc.name, seed, i, got.Positions[i], want[i])
				}
			}
		}
	}
}

func TestPoissonDisk10kFast(t *testing.T) {
	// 10k darts used to take O(tries·n) point comparisons; with the spatial
	// hash the whole throw is comfortably sub-second even under -race.
	start := time.Now()
	d := PoissonDisk(rng.NewSource(1).Stream("big"), geom.R(0, 0, 1000, 1000), 10000, 7)
	elapsed := time.Since(start)
	if d.N() != 10000 {
		t.Fatalf("placed %d of 10000 darts", d.N())
	}
	if elapsed > 5*time.Second {
		t.Errorf("10k darts took %v, want well under a second (5s CI allowance)", elapsed)
	}
	t.Logf("10k darts in %v", elapsed)
}

func TestPoissonDiskSaturates(t *testing.T) {
	// Tiny field cannot hold 100 far-apart darts; must stop early, not hang.
	d := PoissonDisk(testStream("ps"), geom.R(0, 0, 10, 10), 100, 8)
	if d.N() >= 100 {
		t.Errorf("placed %d darts in an impossible field", d.N())
	}
	if d.N() < 1 {
		t.Error("placed nothing")
	}
}

func TestClustered(t *testing.T) {
	field := geom.R(0, 0, 100, 100)
	d := Clustered(testStream("c"), field, 3, 10, 5)
	if d.N() != 30 {
		t.Fatalf("N = %d", d.N())
	}
	for _, p := range d.Positions {
		if !field.Contains(p) {
			t.Fatalf("clustered point %v outside (should clamp)", p)
		}
	}
}

func TestNeighborLists(t *testing.T) {
	d := &Deployment{
		Field:     geom.R(0, 0, 100, 100),
		Positions: []geom.Vec2{geom.V(0, 0), geom.V(5, 0), geom.V(9, 0), geom.V(50, 50)},
	}
	lists := d.NeighborLists(10)
	if len(lists[0]) != 2 || lists[0][0] != 1 || lists[0][1] != 2 {
		t.Errorf("node 0 neighbors = %v", lists[0])
	}
	if len(lists[3]) != 0 {
		t.Errorf("isolated node has neighbors %v", lists[3])
	}
	// Symmetry.
	for i, l := range lists {
		for _, j := range l {
			found := false
			for _, k := range lists[j] {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric neighbor %d->%d", i, j)
			}
		}
	}
}

func TestConnected(t *testing.T) {
	line := &Deployment{
		Field:     geom.R(0, 0, 100, 10),
		Positions: []geom.Vec2{geom.V(0, 0), geom.V(8, 0), geom.V(16, 0), geom.V(24, 0)},
	}
	if !line.Connected(10) {
		t.Error("chain not connected at radius 10")
	}
	if line.Connected(7) {
		t.Error("chain connected at radius 7")
	}
	single := &Deployment{Positions: []geom.Vec2{geom.V(1, 1)}}
	if !single.Connected(1) {
		t.Error("single node not connected")
	}
	empty := &Deployment{}
	if !empty.Connected(1) {
		t.Error("empty deployment not connected")
	}
}

func TestConnectedUniform(t *testing.T) {
	// 30 nodes at 10 m range connect with ~20% probability per draw on a
	// 40x40 field, so a few hundred attempts virtually always succeed.
	st := testStream("cu")
	d := ConnectedUniform(st, geom.R(0, 0, 40, 40), 30, 10, 500)
	if !d.Connected(10) {
		t.Fatal("ConnectedUniform returned a disconnected deployment")
	}
	if d.N() != 30 {
		t.Errorf("N = %d", d.N())
	}
}

func TestConnectedUniformExhausts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("impossible connectivity did not panic")
		}
	}()
	// 2 nodes in a huge field at tiny radius: essentially never connected.
	ConnectedUniform(testStream("x"), geom.R(0, 0, 10000, 10000), 2, 1, 5)
}

func TestGeneratorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	field := geom.R(0, 0, 10, 10)
	mustPanic("uniform n=0", func() { UniformRandom(testStream("a"), field, 0) })
	mustPanic("grid 0", func() { Grid(nil, field, 0, 5, 0) })
	mustPanic("poisson bad", func() { PoissonDisk(testStream("b"), field, 10, 0) })
	mustPanic("cluster bad", func() { Clustered(testStream("c"), field, 0, 5, 1) })
}

func TestQuickUniformStaysInField(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%50) + 1
		field := geom.R(0, 0, 30, 40)
		d := UniformRandom(rng.NewSource(seed).Stream("q"), field, count)
		for _, p := range d.Positions {
			if !field.Contains(p) {
				return false
			}
		}
		return d.N() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickConnectivityMonotoneInRadius(t *testing.T) {
	// If a deployment is connected at radius r, it is connected at any
	// larger radius.
	f := func(seed int64) bool {
		d := UniformRandom(rng.NewSource(seed).Stream("q2"), geom.R(0, 0, 50, 50), 20)
		connectedSmall := d.Connected(15)
		connectedBig := d.Connected(30)
		return !connectedSmall || connectedBig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
