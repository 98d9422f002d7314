package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"lulesh/internal/domain"
)

// The checkpoint reader is an untrusted decoder: a file on disk or a blob
// from a peer may be damaged or hostile. These tests hold it to three
// promises — it never panics, it allocates in proportion to the bytes it
// is given rather than to what a header or a recorded configuration
// claims, and it never silently restores a partial state.

// allocDuring reports the bytes allocated while f runs.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// framed wraps payload in a valid header and CRC, as writeFrame does.
func framed(payload []byte) []byte {
	out := make([]byte, len(frameHeader)+1+4+8, len(frameHeader)+1+4+8+len(payload))
	copy(out, frameHeader)
	out[len(frameHeader)] = frameVersion
	binary.BigEndian.PutUint32(out[len(frameHeader)+1:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint64(out[len(frameHeader)+5:], uint64(len(payload)))
	return append(out, payload...)
}

// encode frames v exactly as Save does.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadAllocatesWhatTheInputHolds(t *testing.T) {
	const budget = 1 << 20

	// A bare 21-byte header claiming a 4 GiB payload.
	hdr := framed(nil)
	binary.BigEndian.PutUint64(hdr[len(frameHeader)+5:], 1<<32)

	// A CRC-valid blob recording a 100³ box but carrying no arrays.
	big := encode(t, &state{Magic: magic, Cfg: domain.BoxConfig{
		Nx: 100, Ny: 100, Nz: 100, NumReg: 11, Balance: 1, Cost: 1, DepositEnergy: true}})
	bigRank := encode(t, &rankState{Magic: rankMagic, Base: state{Cfg: domain.BoxConfig{
		Nx: 100, Ny: 100, Nz: 100, NumReg: 11, Balance: 1, Cost: 1, CommZMax: true}}})

	for _, tc := range []struct {
		name string
		load func() error
	}{
		{"4GiB header", func() error { _, err := Load(bytes.NewReader(hdr)); return err }},
		{"4GiB header, verify", func() error { return Verify(bytes.NewReader(hdr)) }},
		{"100^3 config", func() error { _, err := Load(bytes.NewReader(big)); return err }},
		{"100^3 rank config", func() error { _, _, err := LoadRank(bytes.NewReader(bigRank)); return err }},
	} {
		var err error
		n := allocDuring(func() { err = tc.load() })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		if n >= budget {
			t.Errorf("%s: allocated %d bytes before rejecting, budget %d", tc.name, n, budget)
		}
	}
}

func TestLoadRejectsShortArrays(t *testing.T) {
	bc := domain.BoxConfig{Nx: 3, Ny: 3, Nz: 3, NumReg: 2, Balance: 1, Cost: 1,
		CommZMax: true, DepositEnergy: true}
	d := domain.NewSedovBox(bc)

	st := capture(d, bc)
	st.Y = st.Y[:len(st.Y)-1]
	if _, err := Load(bytes.NewReader(encode(t, &st))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short Y: err = %v, want ErrCorrupt", err)
	}
	st = capture(d, bc)
	st.Arealg = append(st.Arealg, 1)
	if _, err := Load(bytes.NewReader(encode(t, &st))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("long Arealg: err = %v, want ErrCorrupt", err)
	}

	ne := d.NumElem()
	rs := rankState{Magic: rankMagic, Base: capture(d, bc), Meta: RankMeta{
		NodalMass:     d.NodalMass,
		GhostDelvXi:   d.DelvXi[ne:],
		GhostDelvEta:  d.DelvEta[ne:],
		GhostDelvZeta: d.DelvZeta[ne : len(d.DelvZeta)-1],
	}}
	if _, _, err := LoadRank(bytes.NewReader(encode(t, &rs))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short ghost plane: err = %v, want ErrCorrupt", err)
	}
}

// legacyBoxConfig is domain.BoxConfig as checkpoints written before the
// scalar field layout was deleted recorded it: with a FieldLayout field.
type legacyBoxConfig struct {
	Nx, Ny, Nz              int
	NumReg, Balance, Cost   int
	CommZMin, CommZMax      bool
	Spacing, ZOffset, EInit float64
	DepositEnergy           bool
	FieldLayout             int
}

type legacyState struct {
	Magic    string
	Cfg      legacyBoxConfig
	Scenario domain.ScenarioSpec

	X, Y, Z, Xd, Yd, Zd                        []float64
	E, P, Q, Ql, Qq, V, SS, Delv, Vdov, Arealg []float64

	Time, Deltatime, Dtcourant, Dthydro float64
	Cycle                               int
}

// TestLoadLegacyFieldLayout: gob drops fields the reader does not know,
// so a checkpoint whose configuration still names a field layout (here
// the deleted scalar one) restores exactly.
func TestLoadLegacyFieldLayout(t *testing.T) {
	bc := domain.BoxConfig{Nx: 4, Ny: 4, Nz: 4, NumReg: 3, Balance: 1, Cost: 1,
		DepositEnergy: true}
	d := domain.NewSedovBox(bc)
	d.Cycle, d.Time = 9, 1.5e-4
	st := capture(d, bc)
	legacy := legacyState{
		Magic: st.Magic,
		Cfg: legacyBoxConfig{Nx: bc.Nx, Ny: bc.Ny, Nz: bc.Nz, NumReg: bc.NumReg,
			Balance: bc.Balance, Cost: bc.Cost, DepositEnergy: bc.DepositEnergy,
			FieldLayout: 1},
		Scenario: st.Scenario,
		X:        st.X, Y: st.Y, Z: st.Z, Xd: st.Xd, Yd: st.Yd, Zd: st.Zd,
		E: st.E, P: st.P, Q: st.Q, Ql: st.Ql, Qq: st.Qq, V: st.V, SS: st.SS,
		Delv: st.Delv, Vdov: st.Vdov, Arealg: st.Arealg,
		Time: st.Time, Deltatime: st.Deltatime, Dtcourant: st.Dtcourant,
		Dthydro: st.Dthydro, Cycle: st.Cycle,
	}
	got, err := Load(bytes.NewReader(encode(t, &legacy)))
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if got.Cycle != 9 || got.Time != 1.5e-4 || got.Box.Nx != 4 {
		t.Fatalf("clock or box lost: cycle %d time %v box %+v", got.Cycle, got.Time, got.Box)
	}
	for i := range d.E {
		if got.E[i] != d.E[i] || got.V[i] != d.V[i] {
			t.Fatalf("element %d diverged", i)
		}
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to every reader entry point.
// With framed set the bytes become the payload of a valid header and
// CRC, so the fuzzer reaches the gob decoder and the state checks rather
// than dying at the checksum. No input may panic.
func FuzzCheckpointLoad(f *testing.F) {
	for _, spec := range []domain.ScenarioSpec{{Name: domain.ScenarioSedov}, {Name: domain.ScenarioMultimat}} {
		bc := domain.BoxConfig{Nx: 2, Ny: 2, Nz: 2, NumReg: 3, Balance: 1, Cost: 1,
			CommZMin: true, DepositEnergy: true}
		d, err := domain.BuildScenario(spec, bc)
		if err != nil {
			f.Fatal(err)
		}
		var plain, rank bytes.Buffer
		if err := Save(&plain, d, bc); err != nil {
			f.Fatal(err)
		}
		if err := SaveRank(&rank, d, bc, RankMeta{Rank: 1, Ranks: 2, Epoch: 3}); err != nil {
			f.Fatal(err)
		}
		hdr := len(frameHeader) + 1 + 4 + 8
		for _, blob := range [][]byte{plain.Bytes(), rank.Bytes()} {
			f.Add(blob, false)
			f.Add(blob[hdr:], true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		if frame {
			data = framed(data)
		}
		if d, err := Load(bytes.NewReader(data)); err == nil && d.NumElem() < 1 {
			t.Fatal("Load returned an empty domain")
		}
		if d, _, err := LoadRank(bytes.NewReader(data)); err == nil && d.NumElem() < 1 {
			t.Fatal("LoadRank returned an empty domain")
		}
		_ = Verify(bytes.NewReader(data))
	})
}
