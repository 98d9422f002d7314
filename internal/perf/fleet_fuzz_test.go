package perf

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// FuzzFleetBlob drives the fleet-trace gather's decode path: the TagTrace
// payload rank 0 receives from every other rank after a traced wire run.
// Two properties must hold for any input:
//
//   - EncodeBlob→DecodeBlob round-trips the input bytes exactly;
//   - the input read as a received float64 slab (bit-cast eight bytes at
//     a time) never panics the aggregator — whatever survives DecodeBlob
//     and json.Unmarshal into a RankTrace is filed with AddRank, merged
//     and stall-reported.
func FuzzFleetBlob(f *testing.F) {
	healthy, err := json.Marshal(baseSnapshot(0).Traces[1])
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range [][]byte{
		nil,
		{0},
		[]byte(`{"rank":1}`),
		[]byte(`{"rank":-3,"steps":[{"step":1,"wall_ns":-1}]}`),
		[]byte(`{"rank":1,"offset_ns":9223372036854775807,"recvs":[{"peer":7,"tag":99,"t_ns":-9223372036854775808}]}`),
		healthy,
	} {
		f.Add(slabBytes(EncodeBlob(blob)))
	}
	f.Add([]byte("not a slab at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		back, ok := DecodeBlob(EncodeBlob(data))
		if !ok || !bytes.Equal(back, data) {
			t.Fatalf("blob round trip: ok=%v, %d bytes in, %d out", ok, len(data), len(back))
		}

		slab := make([]float64, len(data)/8)
		for i := range slab {
			slab[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		raw, ok := DecodeBlob(slab)
		if !ok {
			return
		}
		var rt RankTrace
		if json.Unmarshal(raw, &rt) != nil {
			return
		}
		// Rank 0 files its own healthy trace first, then the received one.
		fleet := baseSnapshot(0)
		fleet.AddRank(rt)
		rec, _ := fleet.Merge()
		_ = rec.WriteChromeTrace(io.Discard)
		BuildStallReport(fleet).WriteText(io.Discard)
	})
}

// slabBytes is the inverse of the fuzz body's bit-cast: a float64 slab as
// the little-endian bytes the fuzzer mutates.
func slabBytes(slab []float64) []byte {
	b := make([]byte, 8*len(slab))
	for i, v := range slab {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}
