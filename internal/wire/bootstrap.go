package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"time"
)

// protoVersion is bumped on any wire-format change; peers refuse to mix.
// v2: 40-byte header carrying span context (send clock, step, phase) and
// the ping/pong clock-probe frames. v3: the per-axis ghost tags are gone,
// renumbering TagReduce, TagTrace, TagForces and TagDelv.
const protoVersion = 3

// Defaults for Config's zero durations.
const (
	DefaultHeartbeat        = 250 * time.Millisecond
	DefaultPeerTimeout      = 10 * time.Second
	DefaultHandshakeTimeout = 15 * time.Second
)

// Geometry pins the problem every rank must agree on before a single
// slab crosses the wire: a rank joining with a different edge size or
// schedule would exchange garbage that no checksum catches.
type Geometry struct {
	Size       int    // elements per domain edge
	Iterations int    // timestep budget (0 = run to completion)
	Schedule   string // dist.Config.Schedule(), e.g. "async+tree"
}

// Config describes one rank's view of the fabric to join.
type Config struct {
	Rank int
	Size int

	// Rendezvous is rank 0's bootstrap address (host:port). Rank 0
	// listens on it; every other rank dials it.
	Rendezvous string

	// Cookie is the run's shared secret: hellos are signed with it, so
	// a stray process from another run (or another build) is rejected at
	// the handshake instead of corrupting the exchange.
	Cookie string

	Geometry Geometry

	Heartbeat        time.Duration // keepalive interval (DefaultHeartbeat)
	PeerTimeout      time.Duration // silence budget before a peer is declared dead
	HandshakeTimeout time.Duration // bootstrap I/O deadline
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = DefaultPeerTimeout
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return c
}

// buildVersion identifies the wire protocol and the toolchain that
// compiled this process. Ranks built from different toolchains may
// differ in floating-point code generation, which would break the
// bitwise-identity guarantee — so the handshake refuses the mix.
func buildVersion() string {
	return fmt.Sprintf("wire/%d %s", protoVersion, runtime.Version())
}

// hello is the signed introduction every rank presents: who it is, what
// fabric it expects, what problem it is solving, and (for nonzero
// ranks) where its peer listener accepts connections.
type hello struct {
	Rank     int
	Size     int
	Build    string
	Geometry Geometry
	Addr     string
}

// welcome is rank 0's signed reply once all hellos are in: the address
// map that lets the workers wire up their own peer connections.
type welcome struct {
	Addrs []string // indexed by rank; Addrs[0] unused
}

// sign prefixes a gob-encoded handshake payload with a CRC-32 keyed by
// the cookie. This is an integrity check and a shared-secret gate for
// processes on a trusted fabric, not cryptographic authentication.
func sign(cookie string, body []byte) []byte {
	sum := crc32.NewIEEE()
	io.WriteString(sum, cookie)
	sum.Write(body)
	out := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(out[:4], sum.Sum32())
	copy(out[4:], body)
	return out
}

func unsign(cookie string, payload []byte) ([]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: handshake payload too short (%d bytes)", len(payload))
	}
	body := payload[4:]
	sum := crc32.NewIEEE()
	io.WriteString(sum, cookie)
	sum.Write(body)
	if got := binary.LittleEndian.Uint32(payload[:4]); got != sum.Sum32() {
		return nil, fmt.Errorf("wire: handshake signature mismatch (wrong cookie, or corrupt frame)")
	}
	return body, nil
}

func encodeSigned(cookie string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return sign(cookie, buf.Bytes()), nil
}

func decodeSigned(cookie string, payload []byte, v any) error {
	body, err := unsign(cookie, payload)
	if err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// writeHandshakeFrame sends one bootstrap frame synchronously (the
// writer goroutines are not running yet).
func writeHandshakeFrame(c net.Conn, typ byte, from int, payload []byte) error {
	var hdr [headerLen]byte
	putHeader(hdr[:], frameHeader{typ: typ, from: from, payload: uint32(len(payload))})
	if _, err := c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.Write(payload)
	return err
}

// readHandshakeFrame reads one bootstrap frame of the expected type.
func readHandshakeFrame(c net.Conn, wantTyp byte) (frameHeader, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return frameHeader{}, nil, err
	}
	h, err := parseHeader(hdr[:])
	if err != nil {
		return frameHeader{}, nil, err
	}
	if h.typ != wantTyp {
		return frameHeader{}, nil, fmt.Errorf("wire: expected %s frame, got %s",
			frameTypeName(wantTyp), frameTypeName(h.typ))
	}
	payload := make([]byte, h.payload)
	if _, err := io.ReadFull(c, payload); err != nil {
		return frameHeader{}, nil, err
	}
	return h, payload, nil
}

// validateHello cross-checks a peer's hello against our own view of the
// run. Any disagreement — size, geometry, toolchain, protocol — is a
// configuration error worth refusing at bootstrap.
func (c Config) validateHello(h hello) error {
	if h.Rank < 0 || h.Rank >= c.Size {
		return fmt.Errorf("wire: hello from rank %d outside fabric of %d", h.Rank, c.Size)
	}
	if h.Size != c.Size {
		return fmt.Errorf("wire: rank %d joined a %d-rank fabric, we are %d", h.Rank, h.Size, c.Size)
	}
	if h.Build != buildVersion() {
		return fmt.Errorf("wire: rank %d built as %q, we are %q", h.Rank, h.Build, buildVersion())
	}
	if h.Geometry != c.Geometry {
		return fmt.Errorf("wire: rank %d solves %+v, we solve %+v", h.Rank, h.Geometry, c.Geometry)
	}
	return nil
}

// Join runs the bootstrap and returns the connected fabric.
//
// Rank 0 listens on the rendezvous address and collects one signed
// hello per worker; when the fabric is complete it answers each with a
// signed welcome carrying the full peer-listener address map, and keeps
// those rendezvous connections as its peer connections. Every other
// rank opens its own peer listener first, dials the rendezvous, and —
// after the welcome — dials each lower-numbered worker while accepting
// connections from higher-numbered ones, exchanging hello/ack on each
// so both ends prove the cookie and agree on the run.
func Join(cfg Config) (*Fabric, error) {
	cfg = cfg.withDefaults()
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("wire: rank %d out of fabric [0,%d)", cfg.Rank, cfg.Size)
	}
	f := newFabric(cfg)
	if cfg.Size == 1 {
		return f, nil // a fabric of one has no wire to build
	}
	var err error
	if cfg.Rank == 0 {
		err = f.bootstrapRoot()
	} else {
		err = f.bootstrapWorker()
	}
	if err != nil {
		f.closeConns()
		return nil, err
	}
	return f, nil
}

// bootstrapRoot is rank 0's side: accept size-1 hellos, then welcome
// everyone with the address map.
func (f *Fabric) bootstrapRoot() error {
	ln, err := net.Listen("tcp", f.cfg.Rendezvous)
	if err != nil {
		return fmt.Errorf("wire: rendezvous listen %s: %w", f.cfg.Rendezvous, err)
	}
	defer ln.Close()
	deadline := time.Now().Add(f.cfg.HandshakeTimeout)
	addrs := make([]string, f.cfg.Size)
	conns := make([]net.Conn, f.cfg.Size)
	promoted := false
	defer func() {
		if promoted {
			return
		}
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for joined := 0; joined < f.cfg.Size-1; {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: rendezvous accept: %w", err)
		}
		c.SetDeadline(deadline)
		_, payload, err := readHandshakeFrame(c, frameHello)
		if err != nil {
			c.Close()
			return fmt.Errorf("wire: rendezvous hello: %w", err)
		}
		var h hello
		if err := decodeSigned(f.cfg.Cookie, payload, &h); err != nil {
			c.Close()
			return err
		}
		if err := f.cfg.validateHello(h); err != nil {
			c.Close()
			return err
		}
		if conns[h.Rank] != nil {
			c.Close()
			return fmt.Errorf("wire: rank %d joined twice", h.Rank)
		}
		conns[h.Rank], addrs[h.Rank] = c, h.Addr
		joined++
	}
	wel, err := encodeSigned(f.cfg.Cookie, welcome{Addrs: addrs})
	if err != nil {
		return err
	}
	for r := 1; r < f.cfg.Size; r++ {
		if err := writeHandshakeFrame(conns[r], frameWelcome, 0, wel); err != nil {
			return fmt.Errorf("wire: welcome to rank %d: %w", r, err)
		}
	}
	// The rendezvous connections are rank 0's peer connections.
	for r := 1; r < f.cfg.Size; r++ {
		conns[r].SetDeadline(time.Time{})
		f.conns[r] = newPeerConn(f, r, conns[r])
	}
	promoted = true
	return nil
}

// dialRetry dials with retry until the budget runs out: the launcher
// starts all ranks at once, so a worker routinely reaches the rendezvous
// (or a peer listener) a few milliseconds before it is bound.
func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return c, nil
		}
		if remaining := time.Until(deadline); remaining < 10*time.Millisecond {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bootstrapWorker is every other rank's side: peer listener up, dial the
// rendezvous, then wire the worker mesh — dial below, accept above.
func (f *Fabric) bootstrapWorker() error {
	cfg := f.cfg
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return fmt.Errorf("wire: peer listen: %w", err)
	}
	defer ln.Close()

	root, err := dialRetry(cfg.Rendezvous, cfg.HandshakeTimeout)
	if err != nil {
		return fmt.Errorf("wire: dial rendezvous %s: %w", cfg.Rendezvous, err)
	}
	deadline := time.Now().Add(cfg.HandshakeTimeout)
	root.SetDeadline(deadline)

	// Advertise the peer listener at whatever local address reached the
	// rendezvous — correct on multi-homed hosts, loopback on localhost.
	localHost, _, err := net.SplitHostPort(root.LocalAddr().String())
	if err != nil {
		root.Close()
		return err
	}
	_, lnPort, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		root.Close()
		return err
	}
	myHello := hello{
		Rank:     cfg.Rank,
		Size:     cfg.Size,
		Build:    buildVersion(),
		Geometry: cfg.Geometry,
		Addr:     net.JoinHostPort(localHost, lnPort),
	}
	hp, err := encodeSigned(cfg.Cookie, myHello)
	if err != nil {
		root.Close()
		return err
	}
	if err := writeHandshakeFrame(root, frameHello, cfg.Rank, hp); err != nil {
		root.Close()
		return fmt.Errorf("wire: hello to rendezvous: %w", err)
	}
	_, payload, err := readHandshakeFrame(root, frameWelcome)
	if err != nil {
		root.Close()
		return fmt.Errorf("wire: welcome: %w", err)
	}
	var wel welcome
	if err := decodeSigned(cfg.Cookie, payload, &wel); err != nil {
		root.Close()
		return err
	}
	if len(wel.Addrs) != cfg.Size {
		root.Close()
		return fmt.Errorf("wire: welcome maps %d ranks, fabric is %d", len(wel.Addrs), cfg.Size)
	}
	root.SetDeadline(time.Time{})
	f.conns[0] = newPeerConn(f, 0, root)

	// Accept connections from higher-numbered workers concurrently with
	// dialing the lower-numbered ones: with every rank dialing down and
	// accepting up, the mesh completes without circular waits.
	type accepted struct {
		rank int
		conn net.Conn
		err  error
	}
	expect := cfg.Size - 1 - cfg.Rank
	acceptCh := make(chan accepted, expect)
	go func() {
		for i := 0; i < expect; i++ {
			c, err := ln.Accept()
			if err != nil {
				acceptCh <- accepted{err: err}
				return
			}
			c.SetDeadline(deadline)
			_, payload, err := readHandshakeFrame(c, frameHello)
			if err != nil {
				c.Close()
				acceptCh <- accepted{err: err}
				return
			}
			var h hello
			if err := decodeSigned(cfg.Cookie, payload, &h); err == nil {
				err = cfg.validateHello(h)
			}
			if err != nil {
				c.Close()
				acceptCh <- accepted{err: err}
				return
			}
			ack, err := encodeSigned(cfg.Cookie, myHello)
			if err == nil {
				err = writeHandshakeFrame(c, frameAck, cfg.Rank, ack)
			}
			if err != nil {
				c.Close()
				acceptCh <- accepted{err: err}
				return
			}
			acceptCh <- accepted{rank: h.Rank, conn: c}
		}
	}()

	for peer := 1; peer < cfg.Rank; peer++ {
		c, err := net.DialTimeout("tcp", wel.Addrs[peer], cfg.HandshakeTimeout)
		if err != nil {
			return fmt.Errorf("wire: dial rank %d at %s: %w", peer, wel.Addrs[peer], err)
		}
		c.SetDeadline(deadline)
		if err := writeHandshakeFrame(c, frameHello, cfg.Rank, hp); err != nil {
			c.Close()
			return fmt.Errorf("wire: hello to rank %d: %w", peer, err)
		}
		_, ackPayload, err := readHandshakeFrame(c, frameAck)
		if err != nil {
			c.Close()
			return fmt.Errorf("wire: ack from rank %d: %w", peer, err)
		}
		var h hello
		if err := decodeSigned(cfg.Cookie, ackPayload, &h); err == nil {
			if h.Rank != peer {
				err = fmt.Errorf("wire: dialed rank %d, got rank %d", peer, h.Rank)
			} else {
				err = cfg.validateHello(h)
			}
		}
		if err != nil {
			c.Close()
			return err
		}
		c.SetDeadline(time.Time{})
		f.conns[peer] = newPeerConn(f, peer, c)
	}

	for i := 0; i < expect; i++ {
		a := <-acceptCh
		if a.err != nil {
			return fmt.Errorf("wire: peer accept: %w", a.err)
		}
		if f.conns[a.rank] != nil {
			a.conn.Close()
			return fmt.Errorf("wire: rank %d connected twice", a.rank)
		}
		a.conn.SetDeadline(time.Time{})
		f.conns[a.rank] = newPeerConn(f, a.rank, a.conn)
	}
	return nil
}
