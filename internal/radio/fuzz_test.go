package radio

import (
	"bytes"
	"math"
	"testing"
)

// FuzzEnvelopeCodec drives DecodeEnvelope with arbitrary buffers: any
// accepted input must re-encode to a byte fixpoint, decode to a dispatchable
// kind, and keep its on-air size consistent. The seed corpus covers all
// three wire kinds plus malformed frames.
func FuzzEnvelopeCodec(f *testing.F) {
	seed := func(e Envelope) {
		buf, err := e.AppendEncode(nil)
		if err != nil {
			panic(err)
		}
		f.Add(buf)
	}
	seed(Envelope{Kind: KindRequest, Wire: 12})
	seed(envelopeFixture())
	seed(Envelope{Kind: KindBeacon, Flags: 0xff, State: 0xff, Wire: 20,
		F: [6]float64{math.Inf(1), math.Inf(-1), 0, -0.0, 1e-308, math.MaxFloat64}})
	f.Add([]byte{})
	f.Add([]byte{4})
	f.Add(bytes.Repeat([]byte{0xaa}, 53))
	f.Fuzz(func(t *testing.T, buf []byte) {
		e, err := DecodeEnvelope(buf)
		if err != nil {
			return // rejected input: nothing to check
		}
		switch e.Kind {
		case KindRequest, KindResponse, KindBeacon:
		default:
			t.Fatalf("decoder accepted undispatchable kind %v", e.Kind)
		}
		if e.Size() != int(e.Wire) {
			t.Fatalf("Size() = %d, Wire = %d", e.Size(), e.Wire)
		}
		enc, err := e.AppendEncode(nil)
		if err != nil {
			t.Fatalf("re-encode of decoded envelope failed: %v", err)
		}
		e2, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded envelope failed: %v", err)
		}
		// Bytes are the canonical form (NaN floats break struct equality).
		if enc2, _ := e2.AppendEncode(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("codec not a fixpoint:\nfirst  %x\nsecond %x", enc, enc2)
		}
	})
}
