package wire

import (
	"bytes"
	"math"
	"testing"
	"time"

	"lulesh/internal/comm"
)

func TestHeaderRoundTrip(t *testing.T) {
	cases := []frameHeader{
		{typ: frameData, tag: comm.TagReduce, from: 3, seq: 42, payload: 64},
		{typ: frameCtrl, tag: 2, from: 1, seq: 1<<40 + 7},
		{typ: frameHeartbeat, from: 65535},
		{typ: frameHello, payload: 123},
		{typ: frameWelcome, payload: MaxPayload},
		{typ: frameAck, payload: 1},
		{typ: frameBye, from: 9, seq: 0},
		{typ: frameData, payload: 0, delay: 3 * time.Millisecond},
		{typ: frameData, payload: 8, delay: -1},
		// Span context: the v2 header fields round-trip independently.
		{typ: frameData, tag: comm.TagDelv, payload: 16,
			sendNs: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC).UnixNano(),
			step:   123456, phase: phaseGhost},
		{typ: frameData, payload: 8, sendNs: -1, phase: phaseReduce},
		{typ: framePing, seq: 7, sendNs: 99},
		{typ: framePong, seq: 99, sendNs: 100, step: 4},
	}
	for _, want := range cases {
		var b [headerLen]byte
		putHeader(b[:], want)
		got, err := parseHeader(b[:])
		if err != nil {
			t.Fatalf("parseHeader(%+v): %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestPhaseForTag(t *testing.T) {
	cases := []struct {
		tag  comm.Tag
		want byte
	}{
		{comm.TagReduce, phaseReduce},
		{comm.TagNodalMass, phaseGhost},
		{comm.TagForces, phaseGhost},
		{comm.TagDelv, phaseGhost},
		{comm.TagTrace, phaseOther},
		{comm.Tag(0), phaseOther},
	}
	for _, c := range cases {
		if got := phaseForTag(c.tag); got != c.want {
			t.Errorf("phaseForTag(%v) = %d, want %d", c.tag, got, c.want)
		}
	}
}

func TestParseHeaderRejects(t *testing.T) {
	mk := func(h frameHeader) []byte {
		var b [headerLen]byte
		putHeader(b[:], h)
		return b[:]
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"short", make([]byte, headerLen-1)},
		{"empty", nil},
		{"type zero", mk(frameHeader{typ: 0})},
		{"type beyond max", mk(frameHeader{typ: frameTypeMax + 1})},
		{"oversized payload", mk(frameHeader{typ: frameData, payload: MaxPayload + 8})},
		{"data payload not 8-aligned", mk(frameHeader{typ: frameData, payload: 12})},
		{"ctrl with payload", mk(frameHeader{typ: frameCtrl, payload: 8})},
		{"heartbeat with payload", mk(frameHeader{typ: frameHeartbeat, payload: 1})},
		{"bye with payload", mk(frameHeader{typ: frameBye, payload: 24})},
		{"ping with payload", mk(frameHeader{typ: framePing, payload: 8})},
		{"pong with payload", mk(frameHeader{typ: framePong, payload: 8})},
	}
	for _, tc := range cases {
		if _, err := parseHeader(tc.b); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestDecodeFrame(t *testing.T) {
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i)
	}
	var b [headerLen]byte
	putHeader(b[:], frameHeader{typ: frameData, tag: 1, from: 2, seq: 7, payload: 32})
	full := append(b[:], payload...)

	h, got, n, err := decodeFrame(full)
	if err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	if n != len(full) || h.seq != 7 || h.from != 2 || !bytes.Equal(got, payload) {
		t.Fatalf("decodeFrame: n=%d h=%+v payload=%x", n, h, got)
	}

	// Every truncation of a valid frame must error, never panic.
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := decodeFrame(full[:cut]); err == nil {
			t.Errorf("truncated to %d bytes: no error", cut)
		}
	}
}

func TestFloatCodecRoundTrip(t *testing.T) {
	src := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN()}
	portable := appendFloatsPortable(nil, src)
	if hostLittleEndian {
		if !bytes.Equal(floatsAsBytes(src), portable) {
			t.Fatal("unsafe byte view disagrees with portable encoding")
		}
	}
	got := decodeFloatsInto(nil, portable)
	if len(got) != len(src) {
		t.Fatalf("decoded %d floats, want %d", len(got), len(src))
	}
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
			t.Errorf("elem %d: got %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(src[i]))
		}
	}
	// Reused buffer path: decode into an oversized destination.
	buf := make([]float64, 0, 64)
	got = decodeFloatsInto(buf, portable[:32])
	if len(got) != 4 {
		t.Fatalf("partial decode: %d floats, want 4", len(got))
	}
}

func FuzzDecodeFrame(f *testing.F) {
	var b [headerLen]byte
	putHeader(b[:], frameHeader{typ: frameData, payload: 16})
	f.Add(append(b[:], make([]byte, 16)...))
	putHeader(b[:], frameHeader{typ: frameBye})
	f.Add(b[:headerLen:headerLen])
	putHeader(b[:], frameHeader{typ: frameHello, payload: 4})
	f.Add(append(b[:], 1, 2, 3, 4))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerLen+8))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, n, err := decodeFrame(data)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		if int(h.payload) != len(payload) {
			t.Fatalf("header says %d payload bytes, got %d", h.payload, len(payload))
		}
		if n != headerLen+len(payload) || n > len(data) {
			t.Fatalf("consumed %d of %d bytes with %d payload", n, len(data), len(payload))
		}
	})
}

// The steady-state ghost exchange must not allocate per slab in either
// direction; these are enforced (not just reported) so a regression
// fails the suite, not only the benchmarks.
func TestSlabCodecAllocFree(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy path is little-endian only")
	}
	slab := make([]float64, 45*45) // one 45^2 ghost face, the paper's default size
	dst := make([]float64, len(slab))
	encode := func() {
		b := floatsAsBytes(slab)
		if len(b) != 8*len(slab) {
			t.Fatal("bad view")
		}
	}
	decode := func() {
		dst = decodeFloatsInto(dst, floatsAsBytes(slab))
	}
	if n := testing.AllocsPerRun(100, encode); n != 0 {
		t.Errorf("encode allocates %v per slab, want 0", n)
	}
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("decode allocates %v per slab, want 0", n)
	}
}

func BenchmarkEncodeSlab(b *testing.B) {
	slab := make([]float64, 45*45)
	var sink []byte
	b.SetBytes(int64(8 * len(slab)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if hostLittleEndian {
			sink = floatsAsBytes(slab)
		} else {
			sink = appendFloatsPortable(sink[:0], slab)
		}
	}
	_ = sink
}

func BenchmarkDecodeSlab(b *testing.B) {
	slab := make([]float64, 45*45)
	raw := appendFloatsPortable(nil, slab)
	dst := make([]float64, len(slab))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = decodeFloatsInto(dst, raw)
	}
	_ = dst
}
