package radio

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func envelopeFixture() Envelope {
	return Envelope{
		Kind:  KindResponse,
		Flags: 3,
		State: 2,
		Wire:  62,
		F:     [6]float64{1, 2, 0.5, 0.25, 42, 40},
	}
}

func TestEnvelopeCodecRoundTrip(t *testing.T) {
	for _, e := range []Envelope{
		envelopeFixture(),
		{Kind: KindRequest, Wire: 12},
		{Kind: KindBeacon, Flags: 7, Wire: 20, F: [6]float64{math.Inf(1), -0, 1e-300, 0, 0, 9}},
	} {
		buf, err := e.AppendEncode(nil)
		if err != nil {
			t.Fatalf("%v: %v", e.Kind, err)
		}
		got, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatalf("%v: %v", e.Kind, err)
		}
		if got != e {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

func TestEnvelopeCodecRejectsUnknownAndInvalid(t *testing.T) {
	if _, err := (Envelope{Kind: MsgKind(4), Wire: 4}).AppendEncode(nil); err == nil {
		t.Error("unassigned kind 4 encoded")
	}
	if _, err := (Envelope{}).AppendEncode(nil); err == nil {
		t.Error("KindInvalid encoded")
	}
	buf, _ := envelopeFixture().AppendEncode(nil)
	buf[0] = 4
	if _, err := DecodeEnvelope(buf); err == nil {
		t.Error("unassigned kind byte 4 decoded")
	}
	buf[0] = 200
	if _, err := DecodeEnvelope(buf); err == nil {
		t.Error("garbage kind byte decoded")
	}
	if _, err := DecodeEnvelope(buf[:10]); err == nil {
		t.Error("short buffer decoded")
	}
	if _, err := DecodeEnvelope(nil); err == nil {
		t.Error("nil buffer decoded")
	}
}

func TestEnvelopeAppendEncodeAppends(t *testing.T) {
	e := envelopeFixture()
	prefix := []byte{0xde, 0xad}
	out, err := e.AppendEncode(prefix)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := e.AppendEncode(nil)
	if !bytes.Equal(out[:2], prefix) || !bytes.Equal(out[2:], plain) {
		t.Error("AppendEncode does not append after an existing prefix")
	}
}

func TestEnvelopeCodecZeroAllocsSteadyState(t *testing.T) {
	e := envelopeFixture()
	buf, err := e.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		buf, _ = e.AppendEncode(buf[:0])
		if _, err := DecodeEnvelope(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("envelope codec round trip allocates %g allocs/op, want 0", allocs)
	}
}

func TestTxTimeMatchesProfile(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	_ = k
	env := Envelope{Kind: KindResponse, Wire: 62}
	// 62 B = 496 bits at 250 kbps.
	want := 496.0 / 250000.0
	if got := m.TxTime(env); math.Abs(got-want) > 1e-12 {
		t.Errorf("TxTime = %v, want %v", got, want)
	}
}

// TestEnvelopeIsPointerFree pins the envelope as a plain 56-byte value: no
// pointer or interface field, so a pooled delivery record or a staged
// boundary entry holds nothing the collector must trace.
func TestEnvelopeIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Envelope{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch k := f.Type.Kind(); {
		case k == reflect.Uint8, k == reflect.Uint16:
		case k == reflect.Array && f.Type.Elem().Kind() == reflect.Float64:
		default:
			t.Errorf("Envelope.%s has type %v", f.Name, f.Type)
		}
	}
	if size := typ.Size(); size != 56 {
		t.Errorf("Envelope is %d bytes, want 56", size)
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		KindInvalid: "invalid", KindRequest: "request", KindResponse: "response",
		KindBeacon: "beacon", MsgKind(4): "kind(4)", MsgKind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
