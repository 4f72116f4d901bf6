package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicOps(t *testing.T) {
	a := V(3, 4)
	b := V(-1, 2)
	if got := a.Add(b); got != V(2, 6) {
		t.Errorf("Add = %v, want (2,6)", got)
	}
	if got := a.Sub(b); got != V(4, 2) {
		t.Errorf("Sub = %v, want (4,2)", got)
	}
	if got := a.Scale(2); got != V(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := a.Dot(b); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := a.Cross(b); got != 10 {
		t.Errorf("Cross = %v, want 10", got)
	}
	if got := a.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := a.Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
}

func TestVecDist(t *testing.T) {
	if d := V(0, 0).Dist(V(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := V(1, 1).Dist2(V(4, 5)); d != 25 {
		t.Errorf("Dist2 = %v, want 25", d)
	}
}

func TestNormalize(t *testing.T) {
	u := V(3, 4).Normalize()
	if !almost(u.Norm(), 1, eps) {
		t.Errorf("normalized norm = %v, want 1", u.Norm())
	}
	if z := Zero.Normalize(); z != Zero {
		t.Errorf("Zero.Normalize() = %v, want zero", z)
	}
}

func TestAngle(t *testing.T) {
	if a := V(1, 0).Angle(); !almost(a, 0, eps) {
		t.Errorf("angle of (1,0) = %v, want 0", a)
	}
	if a := V(0, 1).Angle(); !almost(a, math.Pi/2, eps) {
		t.Errorf("angle of (0,1) = %v, want pi/2", a)
	}
	if a := V(-1, 0).Angle(); !almost(a, math.Pi, eps) {
		t.Errorf("angle of (-1,0) = %v, want pi", a)
	}
}

func TestLerpVec(t *testing.T) {
	a, b := V(0, 0), V(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("lerp 0 = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("lerp 1 = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != V(5, 10) {
		t.Errorf("lerp 0.5 = %v, want (5,10)", got)
	}
}

func TestPolar(t *testing.T) {
	p := Polar(2, math.Pi/2)
	if !p.ApproxEqual(V(0, 2), eps) {
		t.Errorf("Polar = %v, want (0,2)", p)
	}
}

func TestClampAndLerp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
	if Lerp(0, 10, 0.3) != 3 {
		t.Error("Lerp misbehaves")
	}
}

// --- property-based tests ---

// small maps arbitrary float64s into a well-conditioned range so quick checks
// exercise geometry without overflow artifacts.
func small(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e3)
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := V(small(ax), small(ay)), V(small(bx), small(by))
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubAddInverse(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := V(small(ax), small(ay)), V(small(bx), small(by))
		return a.Add(b).Sub(b).ApproxEqual(a, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickScaleNorm(t *testing.T) {
	f := func(ax, ay, s float64) bool {
		a := V(small(ax), small(ay))
		s = small(s)
		return almost(a.Scale(s).Norm(), math.Abs(s)*a.Norm(), 1e-6*(1+a.Norm()*math.Abs(s)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDotSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := V(small(ax), small(ay)), V(small(bx), small(by))
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCrossAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := V(small(ax), small(ay)), V(small(bx), small(by))
		return a.Cross(b) == -b.Cross(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := V(small(ax), small(ay)), V(small(bx), small(by))
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
