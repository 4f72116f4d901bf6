package radio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MsgKind discriminates the payload of an Envelope.
type MsgKind uint8

// The envelope kinds. KindRequest/KindResponse carry the PAS wire protocol
// (the traffic that dominates every experiment); KindBeacon is a generic
// periodic-announcement frame for duty-cycling and discovery extensions.
const (
	KindInvalid MsgKind = iota
	KindRequest
	KindResponse
	KindBeacon
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindBeacon:
		return "beacon"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Envelope is the one message type the medium carries: a small pointer-free
// tagged union covering the protocol traffic, passed and pooled by value so
// a broadcast→delivery cycle boxes nothing. The payload fields are
// protocol-defined: the protocol packages map their message structs onto
// Flags/State/F (core.Response uses all six floats) and back, so the medium
// itself never needs to know the protocol types.
type Envelope struct {
	// Kind selects the payload interpretation.
	Kind MsgKind
	// Flags and State carry protocol-defined bit flags and a state byte.
	Flags, State uint8
	// Wire is the on-air frame size in bytes including headers; it drives
	// transmission time and energy.
	Wire uint16
	// F carries up to six protocol-defined float payload fields (for
	// KindResponse: position x/y, velocity x/y, predicted arrival,
	// detection time).
	F [6]float64
}

// Size returns the on-air size in bytes including headers.
func (e Envelope) Size() int { return int(e.Wire) }

// envelopeWire is the encoded envelope length: kind, flags, state, wire
// size (uint16) and six float64 payload fields.
const envelopeWire = 1 + 1 + 1 + 2 + 6*8

// AppendEncode appends the serialized envelope to dst and returns the
// extended slice. Like core.Response's codec it exists to prove the frame is
// wire-realizable (and to feed the fuzz harness); KindInvalid and unknown
// kinds refuse to encode.
func (e Envelope) AppendEncode(dst []byte) ([]byte, error) {
	switch e.Kind {
	case KindRequest, KindResponse, KindBeacon:
	default:
		return dst, fmt.Errorf("radio: envelope kind %v is not wire-encodable", e.Kind)
	}
	dst = append(dst, byte(e.Kind), e.Flags, e.State)
	dst = binary.LittleEndian.AppendUint16(dst, e.Wire)
	for _, f := range e.F {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst, nil
}

// DecodeEnvelope parses a buffer produced by AppendEncode. It reads the
// buffer in place and allocates nothing.
func DecodeEnvelope(buf []byte) (Envelope, error) {
	if len(buf) != envelopeWire {
		return Envelope{}, fmt.Errorf("radio: envelope is %d bytes, want %d", len(buf), envelopeWire)
	}
	var e Envelope
	e.Kind = MsgKind(buf[0])
	switch e.Kind {
	case KindRequest, KindResponse, KindBeacon:
	default:
		return Envelope{}, fmt.Errorf("radio: undecodable envelope kind %d", buf[0])
	}
	e.Flags = buf[1]
	e.State = buf[2]
	e.Wire = binary.LittleEndian.Uint16(buf[3:])
	off := 5
	for i := range e.F {
		e.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return e, nil
}
