// Package wire is the TCP fabric behind comm's remote mode: it lets the
// multi-domain LULESH driver span OS processes, one rank per process,
// with the same exchange protocol — sequence numbers, resend requests,
// deadline/retry failure detection — that internal/comm proves
// in-process.
//
// A fabric is built in two steps. Join runs the rendezvous bootstrap
// (rank 0 listens, every other rank dials and exchanges a signed hello;
// see bootstrap.go) and leaves one full-duplex TCP connection per peer
// pair. Fabric.Cluster then wraps the connections in a comm remote
// cluster and starts the per-connection reader goroutines; from there the
// distributed driver uses its ordinary Endpoint and never sees a socket.
//
// Frames are length-prefixed with a fixed 40-byte little-endian header;
// data payloads are raw float64 slabs written straight from the sender's
// reused stream buffer (zero-copy on little-endian hosts), so the
// steady-state ghost exchange allocates nothing on the send path.
//
// The header also carries span context for distributed tracing: the
// sender's wall clock at write time, the driver's timestep and the
// exchange phase, so the receiver can record a recv span paired with
// the sender's send span. Dedicated ping/pong frames echo those clocks
// to estimate per-peer clock offsets (clock.go).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
	"unsafe"

	"lulesh/internal/comm"
)

// Frame types. Hello/welcome/ack appear only during the bootstrap
// handshake; data/ctrl/heartbeat/bye are the steady-state traffic.
const (
	frameData      byte = iota + 1 // float64 slab: one comm message
	frameCtrl                      // resend request (header-only: tag+seq)
	frameHeartbeat                 // keepalive (header-only)
	frameHello                     // signed rank introduction (bootstrap)
	frameWelcome                   // rank 0's signed address map (bootstrap)
	frameAck                       // signed hello response on a peer dial
	frameBye                       // orderly end-of-run (header-only)
	framePing                      // clock probe (header-only; sendNs = t0)
	framePong                      // clock echo (header-only; seq = echoed t0, sendNs = t1)

	frameTypeMax = framePong
)

// headerLen is the fixed frame header size: every frame starts with
//
//	[0:4)   payload length in bytes (uint32 LE)
//	[4]     frame type
//	[5]     comm tag (data/ctrl frames)
//	[6:8)   sender rank (uint16 LE)
//	[8:16)  stream sequence number (uint64 LE)
//	[16:24) residual injected delay, nanoseconds (int64 LE)
//	[24:32) sender wall clock at write, unix nanoseconds (int64 LE)
//	[32:36) driver timestep (uint32 LE)
//	[36]    exchange phase class (phaseGhost/phaseReduce/phaseOther)
//	[37:40) reserved (zero)
//
// followed by exactly `payload length` bytes. The last three fields are
// the propagated span context: a peer build with a different header
// layout is refused at the handshake (protoVersion), so the layout can
// evolve without in-band versioning.
const headerLen = 40

// Exchange phase classes stamped into byte 36 of data frames — the
// coarse attribution the receiver files its recv span under.
const (
	phaseOther  byte = iota // ctrl / bootstrap / anything untagged
	phaseGhost              // ghost and boundary slab exchanges
	phaseReduce             // the dt allreduce (comm.TagReduce)
)

// phaseForTag classifies a comm tag into its phase byte.
func phaseForTag(tag comm.Tag) byte {
	switch {
	case tag == comm.TagReduce:
		return phaseReduce
	case tag == comm.TagNodalMass || tag == comm.TagForces || tag == comm.TagDelv:
		return phaseGhost
	}
	return phaseOther
}

// MaxPayload bounds a frame's payload: large enough for any ghost slab
// the driver exchanges (a face of a 1000^3 domain is ~8 MB), small
// enough that a corrupt or hostile length field cannot make the reader
// allocate unbounded memory.
const MaxPayload = 64 << 20

type frameHeader struct {
	payload uint32
	typ     byte
	tag     comm.Tag
	from    int
	seq     uint64
	delay   time.Duration
	sendNs  int64  // sender wall clock at write (0 = unstamped)
	step    uint32 // driver timestep at send
	phase   byte   // phaseGhost / phaseReduce / phaseOther
}

func putHeader(b []byte, h frameHeader) {
	binary.LittleEndian.PutUint32(b[0:4], h.payload)
	b[4] = h.typ
	b[5] = byte(h.tag)
	binary.LittleEndian.PutUint16(b[6:8], uint16(h.from))
	binary.LittleEndian.PutUint64(b[8:16], h.seq)
	binary.LittleEndian.PutUint64(b[16:24], uint64(int64(h.delay)))
	binary.LittleEndian.PutUint64(b[24:32], uint64(h.sendNs))
	binary.LittleEndian.PutUint32(b[32:36], h.step)
	b[36] = h.phase
	b[37], b[38], b[39] = 0, 0, 0
}

// parseHeader validates and decodes one frame header. It never panics
// and never trusts the length field beyond MaxPayload, so a reader can
// size its payload buffer from the result without an allocation attack.
func parseHeader(b []byte) (frameHeader, error) {
	if len(b) < headerLen {
		return frameHeader{}, fmt.Errorf("wire: short header: %d of %d bytes", len(b), headerLen)
	}
	h := frameHeader{
		payload: binary.LittleEndian.Uint32(b[0:4]),
		typ:     b[4],
		tag:     comm.Tag(b[5]),
		from:    int(binary.LittleEndian.Uint16(b[6:8])),
		seq:     binary.LittleEndian.Uint64(b[8:16]),
		delay:   time.Duration(int64(binary.LittleEndian.Uint64(b[16:24]))),
		sendNs:  int64(binary.LittleEndian.Uint64(b[24:32])),
		step:    binary.LittleEndian.Uint32(b[32:36]),
		phase:   b[36],
	}
	if h.typ < frameData || h.typ > frameTypeMax {
		return frameHeader{}, fmt.Errorf("wire: unknown frame type %d", h.typ)
	}
	if h.payload > MaxPayload {
		return frameHeader{}, fmt.Errorf("wire: payload %d exceeds max %d", h.payload, MaxPayload)
	}
	switch h.typ {
	case frameData:
		if h.payload%8 != 0 {
			return frameHeader{}, fmt.Errorf("wire: data payload %d not a multiple of 8", h.payload)
		}
	case frameCtrl, frameHeartbeat, frameBye, framePing, framePong:
		if h.payload != 0 {
			return frameHeader{}, fmt.Errorf("wire: %s frame with %d-byte payload", frameTypeName(h.typ), h.payload)
		}
	}
	return h, nil
}

// decodeFrame parses one complete frame from b, returning the header,
// the payload (a subslice of b — no copy) and the total bytes consumed.
// Truncated, oversized and garbage input all return an error; nothing
// here panics or allocates proportionally to a corrupt length field.
func decodeFrame(b []byte) (h frameHeader, payload []byte, n int, err error) {
	h, err = parseHeader(b)
	if err != nil {
		return frameHeader{}, nil, 0, err
	}
	n = headerLen + int(h.payload)
	if len(b) < n {
		return frameHeader{}, nil, 0, fmt.Errorf("wire: truncated frame: have %d of %d bytes", len(b), n)
	}
	return h, b[headerLen:n], n, nil
}

func frameTypeName(t byte) string {
	switch t {
	case frameData:
		return "data"
	case frameCtrl:
		return "ctrl"
	case frameHeartbeat:
		return "heartbeat"
	case frameHello:
		return "hello"
	case frameWelcome:
		return "welcome"
	case frameAck:
		return "ack"
	case frameBye:
		return "bye"
	case framePing:
		return "ping"
	case framePong:
		return "pong"
	default:
		return fmt.Sprintf("type(%d)", t)
	}
}

// hostLittleEndian is decided once at init: on little-endian hosts
// (every platform this project targets in practice) float64 slabs cross
// the unsafe boundary as direct byte views of the same memory; on
// big-endian hosts the per-element fallback below keeps the wire format
// identical.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatsAsBytes returns the little-endian byte view of f without
// copying. Only valid on little-endian hosts; callers must check
// hostLittleEndian. The view aliases f — it must be fully consumed
// (written to the socket) before f is reused.
func floatsAsBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}

// appendFloatsPortable encodes f into dst element by element — the
// big-endian-host fallback producing the same little-endian wire bytes.
func appendFloatsPortable(dst []byte, f []float64) []byte {
	for _, v := range f {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeFloatsInto decodes a little-endian float64 payload into dst,
// growing it only when the capacity is short — steady-state decode into
// a reused buffer performs no allocation.
func decodeFloatsInto(dst []float64, b []byte) []float64 {
	n := len(b) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if hostLittleEndian {
		copy(floatsAsBytes(dst), b)
		return dst
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// decodeFloats decodes a payload into a fresh slice. The fabric reader
// uses this for incoming data frames: the receiving endpoint's mailbox
// retains the slice, so it must own its memory.
func decodeFloats(b []byte) []float64 {
	return decodeFloatsInto(nil, b)
}
