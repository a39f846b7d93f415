package graph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// csrDigest is the SHA-256 of the graph's CSR arrays as the package
// stores them: n+1 little-endian int64 offsets, then the 2m int32
// adjacency entries. Both are a function of Degree and Neighbors, so
// the digest needs nothing unexported.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	flush := func(need int) {
		if len(buf)+need > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	n := g.NumNodes()
	var off uint64
	buf = binary.LittleEndian.AppendUint64(buf, off)
	for v := graph.NodeID(0); int(v) < n; v++ {
		off += uint64(g.Degree(v))
		flush(8)
		buf = binary.LittleEndian.AppendUint64(buf, off)
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			flush(4)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCSRGolden pins the bytes of every graph the service can build:
// each family of harness's table at two sizes and two graph seeds, and
// the benchmark's large G(n,p) (last line; skipped under -short). A
// change to the Builder, to a generator's edge order or to its use of
// the random stream moves a line here before it moves a result.
func TestCSRGolden(t *testing.T) {
	var buf bytes.Buffer
	row := func(f harness.Family, n int, seed uint64) {
		g, err := f.Build(n, seed)
		if err != nil {
			t.Fatalf("%s n=%d seed=%d: %v", f.Name, n, seed, err)
		}
		fmt.Fprintf(&buf, "%s n=%d seed=%d nodes=%d edges=%d connected=%v sha256=%s\n",
			f.Name, n, seed, g.NumNodes(), g.NumEdges(), graph.IsConnected(g), csrDigest(g))
	}
	for _, f := range harness.StandardFamilies() {
		for _, n := range []int{100, 1000} {
			for _, seed := range []uint64{1, 2} {
				row(f, n, seed)
			}
		}
	}
	if !testing.Short() {
		gnp, err := harness.FamilyByName("gnp")
		if err != nil {
			t.Fatal(err)
		}
		row(gnp, 250_000, 1)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "csr.golden")
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the large row: run without -short")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		// The large row is the last line; got does not have it.
		want = want[:bytes.LastIndexByte(want[:len(want)-1], '\n')+1]
	}
	gl, wl := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := range wl {
		if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("csr.golden line %d moved:\n got  %s want %s", i+1, bytes.Join(gl[i:min(i+1, len(gl))], nil), wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("csr.golden: %d extra lines", len(gl)-len(wl))
	}
}
