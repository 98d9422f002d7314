// Package checkpoint serializes and restores the complete mutable state of
// a LULESH domain, so long runs can stop and resume. Restart is exact: a
// resumed run reproduces the uninterrupted run bit for bit (asserted by
// tests), because the checkpoint captures every quantity the leapfrog
// iteration reads, including the time-stepping state, and the mesh topology
// and region decomposition are rebuilt deterministically from the recorded
// configuration.
//
// Checkpoints are framed with a CRC-32 checksum over the encoded payload:
// a truncated or bit-flipped file is detected at Load time and reported as
// a typed error wrapping ErrCorrupt, never fed into a garbage restart.
//
// Beyond single domains (Save/Load), the package checkpoints one rank of
// the multi-domain driver (SaveRank/LoadRank): the base domain state plus
// the rank's exchanged nodal masses, its ghost-plane velocity gradients,
// and the comm epoch (the timestep the coordinated checkpoint was taken
// at) — everything internal/dist needs to restart a cluster from its last
// coordinated checkpoint after a rank failure.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lulesh/internal/domain"
)

// ErrCorrupt is wrapped by every Load failure caused by a damaged stream —
// bad header, truncation, checksum mismatch, or an undecodable payload.
// Callers distinguish "the file is damaged" (restore from an older
// checkpoint) from "this is not a checkpoint at all" via errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt")

// ErrScenarioMismatch is wrapped by restore-path errors when a checkpoint's
// scenario tag disagrees with the scenario the run was asked to execute.
// Resuming a piston run from a sedov checkpoint silently merges two
// different problems; callers that know the intended scenario must reject
// the file instead.
var ErrScenarioMismatch = errors.New("checkpoint: scenario mismatch")

// ExpectScenario rejects a restored domain whose scenario tag does not
// match the spec the run was started with. Both sides are compared in
// normalized form (full effective options), so a user-written "piston"
// matches a tag of "piston:speed=100", and an explicit "sedov" matches a
// legacy checkpoint written before scenario tagging (whose tag decodes as
// the zero spec).
func ExpectScenario(d *domain.Domain, want domain.ScenarioSpec) error {
	normWant, err := domain.NormalizeScenarioSpec(want)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrScenarioMismatch, err)
	}
	normTag, err := domain.NormalizeScenarioSpec(d.Scenario)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrScenarioMismatch, err)
	}
	if !normTag.Equal(normWant) {
		return fmt.Errorf("%w: checkpoint was written by %q, run wants %q",
			ErrScenarioMismatch, normTag.String(), normWant.String())
	}
	return nil
}

// Frame layout: header + version byte, CRC-32 (IEEE) of the payload, the
// payload length, then the gob-encoded state.
const (
	frameHeader  = "LULESHCP"
	frameVersion = 2
)

// Magic strings inside the gob payload guard against feeding one
// checkpoint kind into the other loader.
const (
	magic     = "lulesh-checkpoint-v2"
	rankMagic = "lulesh-rank-checkpoint-v1"
)

// state is the serialized form: the box configuration and the scenario
// spec to rebuild mesh/regions/boundary-conditions deterministically
// through the scenario registry, plus every mutable array and the clock.
// Scenario was added after v2 shipped; gob tolerates its absence, and a
// zero spec normalizes to sedov — exactly what every pre-scenario
// checkpoint contained.
type state struct {
	Magic string

	Cfg      domain.BoxConfig
	Scenario domain.ScenarioSpec

	X, Y, Z    []float64
	Xd, Yd, Zd []float64

	E, P, Q    []float64
	Ql, Qq     []float64
	V, SS      []float64
	Delv, Vdov []float64
	Arealg     []float64

	Time      float64
	Deltatime float64
	Dtcourant float64
	Dthydro   float64
	Cycle     int
}

// RankMeta is the per-rank extra state of a multi-domain checkpoint: the
// rank's identity, the comm epoch (cycle) the coordinated checkpoint
// closed at, the exchanged nodal masses (so restart skips the init-time
// mass exchange), and the ghost-plane gradient slots.
type RankMeta struct {
	Rank  int
	Ranks int
	Epoch int

	NodalMass                                []float64
	GhostDelvXi, GhostDelvEta, GhostDelvZeta []float64
}

// rankState wraps the base domain state with the rank extras.
type rankState struct {
	Magic string
	Base  state
	Meta  RankMeta
}

// capture assembles the serializable state of d.
func capture(d *domain.Domain, cfg domain.BoxConfig) state {
	return state{
		Magic:    magic,
		Cfg:      cfg,
		Scenario: d.Scenario,
		X:        d.X, Y: d.Y, Z: d.Z,
		Xd: d.Xd, Yd: d.Yd, Zd: d.Zd,
		E: d.E, P: d.P, Q: d.Q,
		Ql: d.Ql, Qq: d.Qq,
		V: d.V, SS: d.SS,
		Delv: d.Delv, Vdov: d.Vdov,
		Arealg:    d.Arealg,
		Time:      d.Time,
		Deltatime: d.Deltatime,
		Dtcourant: d.Dtcourant,
		Dthydro:   d.Dthydro,
		Cycle:     d.Cycle,
	}
}

// counts derives the node, element and per-face ghost counts the
// recorded configuration implies, without building anything. Dimensions
// outside [1, 1<<20] are rejected up front, which also keeps the products
// from overflowing.
func counts(c domain.BoxConfig) (nn, ne, plane int, err error) {
	const maxDim = 1 << 20
	for _, n := range []int{c.Nx, c.Ny, c.Nz} {
		if n < 1 || n > maxDim {
			return 0, 0, 0, fmt.Errorf("%w: implausible box %dx%dx%d", ErrCorrupt, c.Nx, c.Ny, c.Nz)
		}
	}
	return (c.Nx + 1) * (c.Ny + 1) * (c.Nz + 1), c.Nx * c.Ny * c.Nz, c.Nx * c.Ny, nil
}

// checkSizes verifies that every state array holds exactly as many
// entries as the recorded configuration implies. apply runs it before it
// rebuilds anything: a blob can then make Load allocate no more than a
// domain the size of the arrays it actually carries (gob itself bounds a
// decoded slice by the bytes present), and a short array can never
// silently leave rebuilt initial values in place.
func (st *state) checkSizes() error {
	nn, ne, _, err := counts(st.Cfg)
	if err != nil {
		return err
	}
	for _, a := range [][]float64{st.X, st.Y, st.Z, st.Xd, st.Yd, st.Zd} {
		if len(a) != nn {
			return fmt.Errorf("%w: node array of %d entries, configuration has %d nodes", ErrCorrupt, len(a), nn)
		}
	}
	for _, a := range [][]float64{st.E, st.P, st.Q, st.Ql, st.Qq, st.V, st.SS, st.Delv, st.Vdov, st.Arealg} {
		if len(a) != ne {
			return fmt.Errorf("%w: element array of %d entries, configuration has %d elements", ErrCorrupt, len(a), ne)
		}
	}
	return nil
}

// checkSizes verifies the rank extras as well as the base state: nodal
// masses for every node, and one ghost gradient plane per communicated
// face.
func (st *rankState) checkSizes() error {
	if err := st.Base.checkSizes(); err != nil {
		return err
	}
	nn, _, plane, _ := counts(st.Base.Cfg)
	ghost := 0
	for _, comm := range []bool{st.Base.Cfg.CommZMin, st.Base.Cfg.CommZMax} {
		if comm {
			ghost += plane
		}
	}
	m := &st.Meta
	if len(m.NodalMass) != nn || len(m.GhostDelvXi) != ghost ||
		len(m.GhostDelvEta) != ghost || len(m.GhostDelvZeta) != ghost {
		return fmt.Errorf("%w: rank extras do not match the recorded configuration", ErrCorrupt)
	}
	return nil
}

// apply rebuilds a domain from captured state whose sizes checkSizes has
// verified. The immutable topology and boundary conditions come from
// replaying the recorded scenario through the registry — not from a
// hardcoded constructor — so piston and multimat checkpoints restore the
// face BCs and cost model they were built with.
func apply(st state) (*domain.Domain, error) {
	d, err := domain.BuildScenario(st.Scenario, st.Cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuild scenario %q: %v",
			ErrCorrupt, st.Scenario.String(), err)
	}
	copy(d.X, st.X)
	copy(d.Y, st.Y)
	copy(d.Z, st.Z)
	copy(d.Xd, st.Xd)
	copy(d.Yd, st.Yd)
	copy(d.Zd, st.Zd)
	copy(d.E, st.E)
	copy(d.P, st.P)
	copy(d.Q, st.Q)
	copy(d.Ql, st.Ql)
	copy(d.Qq, st.Qq)
	copy(d.V, st.V)
	copy(d.SS, st.SS)
	copy(d.Delv, st.Delv)
	copy(d.Vdov, st.Vdov)
	copy(d.Arealg, st.Arealg)
	d.Time = st.Time
	d.Deltatime = st.Deltatime
	d.Dtcourant = st.Dtcourant
	d.Dthydro = st.Dthydro
	d.Cycle = st.Cycle
	return d, nil
}

// writeFrame encodes v with gob and writes the checksummed frame.
func writeFrame(w io.Writer, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	var hdr [len(frameHeader) + 1 + 4 + 8]byte
	copy(hdr[:], frameHeader)
	hdr[len(frameHeader)] = frameVersion
	binary.BigEndian.PutUint32(hdr[len(frameHeader)+1:], crc32.ChecksumIEEE(payload.Bytes()))
	binary.BigEndian.PutUint64(hdr[len(frameHeader)+5:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write payload: %w", err)
	}
	return nil
}

// readFrame verifies the header, length and checksum and returns the
// payload. Any damage surfaces as an error wrapping ErrCorrupt.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [len(frameHeader) + 1 + 4 + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(frameHeader)]) != frameHeader {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if hdr[len(frameHeader)] != frameVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr[len(frameHeader)])
	}
	wantCRC := binary.BigEndian.Uint32(hdr[len(frameHeader)+1:])
	length := binary.BigEndian.Uint64(hdr[len(frameHeader)+5:])
	const maxPayload = 1 << 32 // no realistic checkpoint exceeds 4 GiB
	if length > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	// Read through a limit rather than allocating the claimed length up
	// front: the buffer grows with the bytes actually present, so a
	// header that lies about a huge payload costs nothing.
	buf := bytes.NewBuffer(make([]byte, 0, min(length, 64<<10)))
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(length))); err != nil {
		return nil, fmt.Errorf("%w: read payload: %v", ErrCorrupt, err)
	}
	payload := buf.Bytes()
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch (want %08x, got %08x)", ErrCorrupt, wantCRC, got)
	}
	return payload, nil
}

// Save writes a checkpoint of d. cfg must be the configuration d was
// created with (it is stored so Load can rebuild the immutable topology).
func Save(w io.Writer, d *domain.Domain, cfg domain.BoxConfig) error {
	st := capture(d, cfg)
	return writeFrame(w, &st)
}

// SaveCube is Save for cubic single-domain problems (domain.NewSedov or
// any domain.BuildScenarioCube result).
func SaveCube(w io.Writer, d *domain.Domain, cfg domain.Config) error {
	return Save(w, d, domain.BoxConfig{
		Nx: cfg.EdgeElems, Ny: cfg.EdgeElems, Nz: cfg.EdgeElems,
		NumReg: cfg.NumReg, Balance: cfg.Balance, Cost: cfg.Cost,
		DepositEnergy: true,
	})
}

// Load reconstructs a domain from a checkpoint stream. The returned domain
// continues exactly where Save left off.
func Load(r io.Reader) (*domain.Domain, error) {
	payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	var st state
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if st.Magic != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", st.Magic)
	}
	if err := st.checkSizes(); err != nil {
		return nil, err
	}
	return apply(st)
}

// Verify reads one checkpoint frame and checks its header, length and
// CRC-32 without decoding or applying the payload. The distributed
// driver uses it to decide whether an on-disk coordinated checkpoint is
// safe to restart a whole cluster from: a torn or damaged blob fails
// here, wrapping ErrCorrupt, before any rank commits to the epoch.
func Verify(r io.Reader) error {
	_, err := readFrame(r)
	return err
}

// SaveRank writes one multi-domain rank's checkpoint: the base domain
// state plus the exchanged nodal masses and ghost gradient planes, stamped
// with the rank identity and comm epoch from meta (whose slice fields are
// captured from d and may be left nil by the caller).
func SaveRank(w io.Writer, d *domain.Domain, cfg domain.BoxConfig, meta RankMeta) error {
	ne := d.NumElem()
	meta.NodalMass = d.NodalMass
	meta.GhostDelvXi = d.DelvXi[ne:]
	meta.GhostDelvEta = d.DelvEta[ne:]
	meta.GhostDelvZeta = d.DelvZeta[ne:]
	st := rankState{Magic: rankMagic, Base: capture(d, cfg), Meta: meta}
	return writeFrame(w, &st)
}

// LoadRank reconstructs one rank's domain and its exchange metadata from a
// rank checkpoint stream. The nodal masses and ghost gradient planes are
// restored into the domain, so the restarted rank must not repeat the
// init-time mass exchange.
func LoadRank(r io.Reader) (*domain.Domain, RankMeta, error) {
	payload, err := readFrame(r)
	if err != nil {
		return nil, RankMeta{}, err
	}
	var st rankState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, RankMeta{}, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if st.Magic != rankMagic {
		return nil, RankMeta{}, fmt.Errorf("checkpoint: bad rank magic %q", st.Magic)
	}
	if err := st.checkSizes(); err != nil {
		return nil, RankMeta{}, err
	}
	d, err := apply(st.Base)
	if err != nil {
		return nil, RankMeta{}, err
	}
	ne := d.NumElem()
	copy(d.NodalMass, st.Meta.NodalMass)
	copy(d.DelvXi[ne:], st.Meta.GhostDelvXi)
	copy(d.DelvEta[ne:], st.Meta.GhostDelvEta)
	copy(d.DelvZeta[ne:], st.Meta.GhostDelvZeta)
	return d, st.Meta, nil
}
