// Package core implements the paper's primary contribution: PAS, the
// Prediction-based Adaptive Sleeping protocol. It contains the two-message
// REQUEST/RESPONSE wire protocol (§3.2), the linearly-increasing sleep
// schedule and the adaptive agent state machine (§3.4, Fig. 3), which runs
// the spreading-velocity estimators and arrival-time predictor (§3.3) of
// internal/predict.
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
)

// MsgType discriminates the two PAS message kinds.
type MsgType uint8

// The PAS wire-protocol message types (paper §3.2).
const (
	MsgRequest MsgType = iota + 1
	MsgResponse
)

// headerBytes is the on-air overhead per frame (preamble, addressing, CRC) —
// the 802.15.4 MAC header the Telos radio uses.
const headerBytes = 11

// Request asks neighbours for their stimulus information. It carries no
// payload (paper: "This message does not have any payload").
type Request struct{}

// Size returns the on-air frame size in bytes.
func (Request) Size() int { return headerBytes + 1 } // header + type tag

// Envelope packs the request into the radio's value-dispatch envelope — the
// allocation-free form every broadcast uses.
func (Request) Envelope() radio.Envelope {
	return radio.Envelope{Kind: radio.KindRequest, Wire: uint16(Request{}.Size())}
}

// Response carries a sensor's stimulus knowledge (paper: "a sensor's
// location, state, the estimated spread speed and the predicted arrival time
// of the stimulus"). DetectedAt is additionally included for covered
// senders: the actual-velocity formula needs the elapsed time between the
// neighbours' detections (t_I), which is only computable from the reported
// detection instant.
type Response struct {
	// Pos is the sender's location.
	Pos geom.Vec2
	// State is the sender's protocol state.
	State node.State
	// Velocity is the sender's spreading-velocity estimate; valid only when
	// HasVelocity is set. HasDirection reports whether the vector's
	// direction is meaningful: PAS velocity estimates are true vectors,
	// while SAS reports a bare speed through predict.SpeedOnly and clears the
	// bit, so receivers never project along the fabricated +x heading.
	Velocity     geom.Vec2
	HasVelocity  bool
	HasDirection bool
	// PredictedArrival is the sender's predicted absolute stimulus arrival
	// time at its own position (+Inf when unknown; the sender's detection
	// time once covered).
	PredictedArrival float64
	// DetectedAt is the absolute time the sender detected the stimulus;
	// valid only when Detected is set.
	DetectedAt float64
	Detected   bool
}

// responsePayload is the encoded payload length: type tag, flags, 2×2
// float64 vectors, 2 float64 times, 1 state byte.
const responsePayload = 1 + 1 + 32 + 16 + 1

// Size returns the on-air frame size in bytes: the header plus the payload.
func (Response) Size() int { return headerBytes + responsePayload }

// Response flag bits, shared by the byte codec and the envelope mapping.
const (
	flagHasVelocity  = 1 << 0
	flagDetected     = 1 << 1
	flagHasDirection = 1 << 2
)

// Envelope packs the response into the radio's value-dispatch envelope. The
// mapping mirrors AppendEncode field-for-field (same flag bits, same float
// order), so the envelope is exactly as wire-faithful as the byte codec.
func (r Response) Envelope() radio.Envelope {
	var flags uint8
	if r.HasVelocity {
		flags |= flagHasVelocity
	}
	if r.Detected {
		flags |= flagDetected
	}
	if r.HasDirection {
		flags |= flagHasDirection
	}
	return radio.Envelope{
		Kind:  radio.KindResponse,
		Flags: flags,
		State: uint8(r.State),
		Wire:  uint16(Response{}.Size()),
		F: [6]float64{
			r.Pos.X, r.Pos.Y,
			r.Velocity.X, r.Velocity.Y,
			r.PredictedArrival, r.DetectedAt,
		},
	}
}

// ResponseFromEnvelope unpacks a KindResponse envelope produced by
// Response.Envelope. It is the receive-side inverse and allocates nothing.
func ResponseFromEnvelope(env radio.Envelope) Response {
	return Response{
		Pos:              geom.V(env.F[0], env.F[1]),
		State:            node.State(env.State),
		Velocity:         geom.V(env.F[2], env.F[3]),
		HasVelocity:      env.Flags&flagHasVelocity != 0,
		HasDirection:     env.Flags&flagHasDirection != 0,
		PredictedArrival: env.F[4],
		DetectedAt:       env.F[5],
		Detected:         env.Flags&flagDetected != 0,
	}
}

// Encode serializes the response payload (excluding the simulated-only radio
// header) for codec tests and trace dumps. The simulation itself passes
// messages by value; Encode/Decode prove the message is wire-realizable.
// Encode allocates the result; hot paths should use AppendEncode with a
// reused buffer.
func (r Response) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, responsePayload))
}

// AppendEncode appends the encoded payload to dst and returns the extended
// slice. With a pre-grown buffer (dst[:0] of a prior result) the encode →
// decode round trip is allocation-free.
func (r Response) AppendEncode(dst []byte) []byte {
	var flags byte
	if r.HasVelocity {
		flags |= flagHasVelocity
	}
	if r.Detected {
		flags |= flagDetected
	}
	if r.HasDirection {
		flags |= flagHasDirection
	}
	dst = append(dst, byte(MsgResponse), flags)
	for _, f := range [...]float64{r.Pos.X, r.Pos.Y, r.Velocity.X, r.Velocity.Y, r.PredictedArrival, r.DetectedAt} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return append(dst, byte(r.State))
}

// DecodeResponse parses a payload produced by Encode. It reads the buffer in
// place and allocates nothing.
func DecodeResponse(buf []byte) (Response, error) {
	if len(buf) != responsePayload {
		return Response{}, fmt.Errorf("core: response payload is %d bytes, want %d", len(buf), responsePayload)
	}
	if MsgType(buf[0]) != MsgResponse {
		return Response{}, fmt.Errorf("core: payload type %d is not a response", buf[0])
	}
	var r Response
	flags := buf[1]
	r.HasVelocity = flags&flagHasVelocity != 0
	r.Detected = flags&flagDetected != 0
	r.HasDirection = flags&flagHasDirection != 0
	var vals [6]float64
	off := 2
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	r.Pos = geom.V(vals[0], vals[1])
	r.Velocity = geom.V(vals[2], vals[3])
	r.PredictedArrival = vals[4]
	r.DetectedAt = vals[5]
	r.State = node.State(buf[off])
	return r, nil
}
