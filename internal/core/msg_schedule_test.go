package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/predict"
)

func TestMessageSizes(t *testing.T) {
	if s := (Request{}).Size(); s != 12 {
		t.Errorf("Request size = %d, want 12 (11B header + tag)", s)
	}
	want := 11 + responsePayload
	if s := (Response{}).Size(); s != want {
		t.Errorf("Response size = %d, want %d", s, want)
	}
	// A response must fit a 127-byte 802.15.4 frame.
	if (Response{}).Size() > 127 {
		t.Error("response exceeds a single 802.15.4 frame")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := Response{
		Pos:              geom.V(12.5, -3.25),
		State:            node.StateAlert,
		Velocity:         geom.V(0.5, -0.125),
		HasVelocity:      true,
		PredictedArrival: 42.75,
		DetectedAt:       40.5,
		Detected:         true,
	}
	got, err := DecodeResponse(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestResponseRoundTripInf(t *testing.T) {
	r := Response{Pos: geom.V(1, 2), PredictedArrival: math.Inf(1)}
	got, err := DecodeResponse(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.PredictedArrival, 1) {
		t.Errorf("PredictedArrival = %v", got.PredictedArrival)
	}
	if got.HasVelocity || got.Detected {
		t.Error("flags leaked")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeResponse(nil); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := DecodeResponse(make([]byte, 5)); err == nil {
		t.Error("short payload accepted")
	}
	buf := (Response{}).Encode()
	buf[0] = byte(MsgRequest)
	if _, err := DecodeResponse(buf); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestQuickResponseRoundTrip(t *testing.T) {
	f := func(px, py, vx, vy, pa, da float64, hasVel, det bool, st uint8) bool {
		clean := func(x float64) float64 {
			if math.IsNaN(x) {
				return 0
			}
			return x
		}
		r := Response{
			Pos:              geom.V(clean(px), clean(py)),
			State:            node.State(st % 3),
			Velocity:         geom.V(clean(vx), clean(vy)),
			HasVelocity:      hasVel,
			PredictedArrival: clean(pa),
			DetectedAt:       clean(da),
			Detected:         det,
		}
		got, err := DecodeResponse(r.Encode())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSleepScheduleRamp(t *testing.T) {
	s := MakeSleepSchedule(1, 2, 6)
	want := []float64{1, 3, 5, 6, 6, 6}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("Next #%d = %v, want %v", i, got, w)
		}
	}
}

func TestSleepScheduleCurrentAndReset(t *testing.T) {
	s := MakeSleepSchedule(2, 1, 4)
	if s.Current() != 2 {
		t.Errorf("initial Current = %v", s.Current())
	}
	s.Next()
	if s.Current() != 3 {
		t.Errorf("Current after one = %v", s.Current())
	}
	s.Next()
	s.Next()
	s.Next()
	if s.Current() != 4 {
		t.Errorf("saturated Current = %v", s.Current())
	}
	s.Reset()
	if s.Next() != 2 {
		t.Error("Reset did not restart the ramp")
	}
}

func TestSleepScheduleInitAboveMax(t *testing.T) {
	s := MakeSleepSchedule(10, 1, 4)
	if got := s.Next(); got != 4 {
		t.Errorf("clamped first interval = %v", got)
	}
}

func TestSleepScheduleZeroIncrement(t *testing.T) {
	s := MakeSleepSchedule(3, 0, 10)
	for i := 0; i < 5; i++ {
		if got := s.Next(); got != 3 {
			t.Fatalf("constant schedule produced %v", got)
		}
	}
}

func TestSleepSchedulePanics(t *testing.T) {
	cases := []struct {
		name           string
		init, inc, max float64
	}{
		{"zero init", 0, 1, 5},
		{"zero max", 1, 1, 0},
		{"negative increment", 1, -1, 5},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			MakeSleepSchedule(c.init, c.inc, c.max)
		}()
	}
}

func TestQuickScheduleMonotoneBounded(t *testing.T) {
	f := func(rawInit, rawInc, rawMax float64, steps uint8) bool {
		init := math.Abs(math.Mod(rawInit, 10)) + 0.1
		inc := math.Abs(math.Mod(rawInc, 5))
		max := math.Abs(math.Mod(rawMax, 50)) + 0.1
		s := MakeSleepSchedule(init, inc, max)
		prev := 0.0
		for i := 0; i < int(steps%50)+1; i++ {
			got := s.Next()
			if got < prev-1e-12 || got > max+1e-12 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.AlertThreshold = -1 },
		func(c *Config) { c.SleepInit = 0 },
		func(c *Config) { c.SleepMax = -1 },
		func(c *Config) { c.SleepIncrement = -1 },
		func(c *Config) { c.ResponseWindow = 0 },
		func(c *Config) { c.AlertReassess = 0 },
		func(c *Config) { c.DetectionTimeout = 0 },
		func(c *Config) { c.SignificantChange = -0.1 },
		func(c *Config) { c.MaxReportAge = -1 },
		func(c *Config) { c.ResponseStagger = -1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestResponseHasDirectionRoundTrip(t *testing.T) {
	// The speed-only wire representation (satellite of the predictor PR):
	// HasVelocity with HasDirection clear marks a SAS-style magnitude-only
	// report. The bit must survive both the byte codec and the envelope
	// mapping, independently of the other flags.
	for _, hasDir := range []bool{false, true} {
		r := Response{
			Pos: geom.V(3, 4), State: node.StateCovered,
			Velocity: predict.SpeedOnly(2), HasVelocity: true, HasDirection: hasDir,
			PredictedArrival: 9, DetectedAt: 9, Detected: true,
		}
		got, err := DecodeResponse(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("byte codec: got %+v, want %+v", got, r)
		}
		if env := ResponseFromEnvelope(r.Envelope()); env != r {
			t.Errorf("envelope: got %+v, want %+v", env, r)
		}
	}
}

func TestSignificantChange(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		old, new float64
		want     bool
	}{
		{inf, 20, true},   // unknown → known
		{20, inf, true},   // known → unknown
		{inf, inf, false}, // still unknown
		{20, 21, false},   // 10% change at now=10: (11-10)/10 = 10% < 20%
		{20, 25, true},    // 50% change
		{20, 20, false},   // unchanged
	}
	for _, c := range cases {
		if got := predict.SignificantChange(c.old, c.new, 0.2, 10); got != c.want {
			t.Errorf("SignificantChange(%v→%v) = %v, want %v", c.old, c.new, got, c.want)
		}
	}
}
