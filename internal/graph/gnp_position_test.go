package graph

import (
	"math"
	"testing"

	"rumor/internal/xrand"
)

// TestStreamedBuildGNPGeneratorPosition pins where GNP and GNPConnected
// leave the caller's generator: its next four draws after the call. The
// CSR goldens pin the graph, but not this position, and it is what
// GNPConnected's next attempt and any later user of the stream draw
// from. The values were recorded against the serial enumeration; the
// n = 250 000 rows (the benchmark's graph, csr.golden's last row) are
// skipped under -short.
func TestStreamedBuildGNPGeneratorPosition(t *testing.T) {
	lnp := func(n int, c float64) float64 { return c * math.Log(float64(n)) / float64(n) }
	for _, tc := range []struct {
		name      string
		n         int
		p         float64
		seed      uint64
		connected bool // GNPConnected with 100 attempts, else GNP
		large     bool
		want      [4]uint64
	}{
		{"gnp/n1000", 1000, lnp(1000, 3), 1, false, false, [4]uint64{0x71cab5e4a3c67a92, 0xa3057d6c95b07bcb, 0xfc1ae85eb68c52a8, 0xbb80990443ab9a83}},
		{"connected/n1000", 1000, lnp(1000, 3), 1, true, false, [4]uint64{0x71cab5e4a3c67a92, 0xa3057d6c95b07bcb, 0xfc1ae85eb68c52a8, 0xbb80990443ab9a83}},
		// Below the connectivity threshold: GNPConnected retries, each
		// attempt drawing where the last one stopped (eight attempts).
		{"connected-retries/n1000", 1000, lnp(1000, 0.9), 1, true, false, [4]uint64{0xbe1230bf9f258bc1, 0x812158a81e3ec1c2, 0x6f6b89055783a7b2, 0xf6db75c13ec98698}},
		// The first skip passes every pair: the maxSkip break.
		{"gnp-empty/n1000", 1000, 1e-9, 1, false, false, [4]uint64{0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7, 0xb27a48e29a233673}},
		{"gnp/n250000", gnpLargeN, gnpLargeP(), 1, false, true, [4]uint64{0xba742809d281c7b1, 0xf3e0644f6d3996b4, 0xa8db1c113904c5fc, 0x2df6c5249df3e995}},
		{"connected/n250000", gnpLargeN, gnpLargeP(), 1, true, true, [4]uint64{0xba742809d281c7b1, 0xf3e0644f6d3996b4, 0xa8db1c113904c5fc, 0x2df6c5249df3e995}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("large row skipped under -short")
			}
			rng := xrand.New(tc.seed)
			var err error
			if tc.connected {
				_, err = GNPConnected(tc.n, tc.p, rng, 100)
			} else {
				_, err = GNP(tc.n, tc.p, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			var got [4]uint64
			for i := range got {
				got[i] = rng.Uint64()
			}
			if got != tc.want {
				t.Errorf("next draws %#x, want %#x", got, tc.want)
			}
		})
	}
}
