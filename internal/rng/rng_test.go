package rng

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestStreamsDeterministic(t *testing.T) {
	a := NewSource(42).Stream("deploy")
	b := NewSource(42).Stream("deploy")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed + name produced different draws")
		}
	}
}

func TestStreamsIndependentByName(t *testing.T) {
	s := NewSource(42)
	a := s.Stream("deploy")
	b := s.Stream("channel")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different names coincide in %d/100 draws", same)
	}
}

func TestStreamsIndependentBySeed(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds coincide in %d/100 draws", same)
	}
}

func TestStreamN(t *testing.T) {
	s := NewSource(7)
	a := s.StreamN("node", 0)
	b := s.StreamN("node", 1)
	a2 := s.StreamN("node", 0)
	if a.Float64() == b.Float64() {
		t.Error("numbered streams not independent")
	}
	// a2 restarts stream 0.
	want := NewSource(7).StreamN("node", 0).Float64()
	_ = a2
	got := NewSource(7).StreamN("node", 0).Float64()
	if want != got {
		t.Error("numbered stream not reproducible")
	}
}

// TestStreamStateGridHasNoCollisions sweeps a large (name, n) grid across
// seeds and requires every derived generator state — numbered and unnumbered
// — to be distinct. The pre-fix derivation (name-hash XOR seed XOR scaled
// index, then one mix round) let structured (name, n) pairs cancel before the
// mix; pushing the index through its own splitmix64 round makes the grid
// collision-free.
func TestStreamStateGridHasNoCollisions(t *testing.T) {
	names := []string{"node", "node1", "node2", "deploy", "channel", "failures",
		"anisotropic-front", "contour-mc", "a", "b", "ab", "ba", ""}
	seeds := []uint64{0, 1, 42, 0x9e3779b97f4a7c15}
	const perName = 2048
	states := make(map[uint64]string, len(seeds)*len(names)*(perName+1))
	record := func(state uint64, what string) {
		if prev, dup := states[state]; dup {
			t.Fatalf("state collision: %s and %s both map to %#x", prev, what, state)
		}
		states[state] = what
	}
	for _, seed := range seeds {
		for _, name := range names {
			h := nameHash(name)
			record(streamState(h, seed), fmt.Sprintf("Stream(%q)/seed %d", name, seed))
			for n := uint64(0); n < perName; n++ {
				record(streamStateN(h, seed, n), fmt.Sprintf("StreamN(%q,%d)/seed %d", name, n, seed))
			}
		}
	}
}

// TestStreamNDecorrelated checks adjacent numbered streams differ in many
// state bits (no low-bit lockstep) and that their draws do not track the
// unnumbered stream.
func TestStreamNDecorrelated(t *testing.T) {
	h := nameHash("node")
	for n := uint64(0); n < 512; n++ {
		diff := streamStateN(h, 7, n) ^ streamStateN(h, 7, n+1)
		if bits.OnesCount64(diff) < 10 {
			t.Fatalf("states for n=%d and n=%d differ in only %d bits", n, n+1, bits.OnesCount64(diff))
		}
	}
	src := NewSource(7)
	base := src.Stream("node")
	numbered := src.StreamN("node", 0)
	same := 0
	for i := 0; i < 100; i++ {
		if base.Float64() == numbered.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("Stream and StreamN coincide in %d/100 draws", same)
	}
}

func TestSeedAccessor(t *testing.T) {
	if NewSource(99).Seed() != 99 {
		t.Error("Seed() mismatch")
	}
}

func TestUniformRange(t *testing.T) {
	st := NewSource(1).Stream("u")
	for i := 0; i < 1000; i++ {
		x := st.Uniform(3, 7)
		if x < 3 || x >= 7 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestUniformMean(t *testing.T) {
	st := NewSource(1).Stream("umean")
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += st.Uniform(0, 10)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.15 {
		t.Errorf("Uniform(0,10) mean = %v, want ~5", mean)
	}
}

func TestExponential(t *testing.T) {
	st := NewSource(2).Stream("exp")
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		x := st.Exponential(3)
		if x < 0 {
			t.Fatalf("Exponential negative: %v", x)
		}
		sum += x
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.2 {
		t.Errorf("Exponential(3) mean = %v", mean)
	}
	if st.Exponential(0) != 0 || st.Exponential(-1) != 0 {
		t.Error("degenerate Exponential not 0")
	}
}

func TestNormal(t *testing.T) {
	st := NewSource(3).Stream("norm")
	var acc, acc2 float64
	n := 20000
	for i := 0; i < n; i++ {
		x := st.Normal(10, 2)
		acc += x
		acc2 += x * x
	}
	mean := acc / float64(n)
	vari := acc2/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(vari-4) > 0.3 {
		t.Errorf("Normal var = %v", vari)
	}
}

func TestBernoulli(t *testing.T) {
	st := NewSource(4).Stream("bern")
	if st.Bernoulli(0) {
		t.Error("p=0 returned true")
	}
	if !st.Bernoulli(1) {
		t.Error("p=1 returned false")
	}
	if st.Bernoulli(-0.5) || !st.Bernoulli(1.5) {
		t.Error("clamping misbehaves")
	}
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if st.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestJitter(t *testing.T) {
	st := NewSource(5).Stream("jit")
	if st.Jitter(0) != 1 || st.Jitter(-1) != 1 {
		t.Error("no-jitter case not 1")
	}
	for i := 0; i < 1000; i++ {
		j := st.Jitter(0.25)
		if j < 0.75 || j > 1.25 {
			t.Fatalf("Jitter out of range: %v", j)
		}
	}
	// amount > 1 clamps to 1: factor in [0, 2].
	for i := 0; i < 1000; i++ {
		j := st.Jitter(5)
		if j < 0 || j > 2 {
			t.Fatalf("clamped Jitter out of range: %v", j)
		}
	}
}

func TestQuickStreamNameDeterminism(t *testing.T) {
	f := func(seed int64, name string) bool {
		a := NewSource(seed).Stream(name)
		b := NewSource(seed).Stream(name)
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUniformBounds(t *testing.T) {
	f := func(seed int64, lo, w float64) bool {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		lo = math.Mod(lo, 1e6)
		w = math.Abs(math.Mod(w, 1e6))
		if w == 0 {
			return true
		}
		st := NewSource(seed).Stream("q")
		x := st.Uniform(lo, lo+w)
		return x >= lo && x < lo+w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitmix64Mixes(t *testing.T) {
	// Sequential inputs must map to widely separated outputs.
	a := splitmix64(1)
	b := splitmix64(2)
	if a == b {
		t.Error("splitmix64 collision on adjacent inputs")
	}
	diff := a ^ b
	bits := 0
	for diff != 0 {
		bits += int(diff & 1)
		diff >>= 1
	}
	if bits < 10 {
		t.Errorf("adjacent inputs differ in only %d bits", bits)
	}
}

// drawMix takes one draw of each kind the simulator uses, so a lazily seeded
// stream and an eager generator can be compared draw for draw.
func drawMix(r *rand.Rand) []float64 {
	out := []float64{r.Float64(), float64(r.Int63()), float64(r.Uint64() >> 11), float64(r.Intn(1000)),
		r.NormFloat64(), r.ExpFloat64()}
	for _, p := range r.Perm(5) {
		out = append(out, float64(p))
	}
	return out
}

func TestLazyStreamsMatchEagerGenerators(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		src := NewSource(seed)
		for _, name := range []string{"channel", "deploy", ""} {
			for _, n := range []int{-1, 0, 3} {
				var st *Stream
				var state uint64
				if n < 0 {
					st, state = src.Stream(name), streamState(nameHash(name), uint64(seed))
				} else {
					st, state = src.StreamN(name, n), streamStateN(nameHash(name), uint64(seed), uint64(n))
				}
				eager := rand.New(rand.NewSource(int64(state)))
				compare := func(stage string) {
					t.Helper()
					for i := 0; i < 4; i++ {
						got, want := drawMix(st.Rand), drawMix(eager)
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d %q #%d %s: lazy stream drew %v, eager generator %v", seed, name, n, stage, got, want)
						}
					}
				}
				compare("fresh")
				st.Seed(seed + 99)
				eager.Seed(seed + 99)
				compare("after Seed")
			}
		}
	}
	// Seed before the first draw reseeds the generator the draw will create.
	st := NewSource(5).Stream("channel")
	st.Seed(11)
	eager := rand.New(rand.NewSource(11))
	if got, want := drawMix(st.Rand), drawMix(eager); !slices.Equal(got, want) {
		t.Fatalf("Seed before the first draw: lazy stream drew %v, eager generator %v", got, want)
	}
}

func TestUndrawnStreamAllocatesNoGenerator(t *testing.T) {
	const n = 64
	streams := make([]*Stream, n)
	src := NewSource(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range streams {
		streams[i] = src.StreamN("channel", i)
	}
	runtime.ReadMemStats(&after)
	// A seeded generator is a 607-word table, 4.9 KB.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("an undrawn stream allocates %d bytes, want no generator table", per)
	}
	streams[0].Float64()
	runtime.ReadMemStats(&before)
	if grew := before.TotalAlloc - after.TotalAlloc; grew < 4096 {
		t.Errorf("the first draw allocated %d bytes, want the generator table", grew)
	}
}
