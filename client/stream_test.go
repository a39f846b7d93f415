package client_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rumor/client"
	"rumor/internal/service"
)

// bigRow is a results row of about 2 MiB: larger than the stream
// readers' initial buffer, well inside their 16 MiB cap.
var bigRow = `{"index":1,"key":"` + strings.Repeat("k", 2<<20) + `"}`

// TestResultStreamGrowsPastInitialBuffer: a row larger than the
// scanner's initial buffer decodes through ResultStream.Next, and Raw
// returns its bytes whole.
func TestResultStreamGrowsPastInitialBuffer(t *testing.T) {
	c, _ := streamServer(t, bigRow)
	stream, err := c.Results(context.Background(), "job-1", -1)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Next(); err != nil {
		t.Fatalf("row 0: %v", err)
	}
	res, err := stream.Next()
	if err != nil {
		t.Fatalf("the 2 MiB row: %v", err)
	}
	if res.Index != 1 || len(res.Key) != 2<<20 {
		t.Errorf("decoded index %d with a %d-byte key, want index 1 and %d bytes", res.Index, len(res.Key), 2<<20)
	}
	if !bytes.Equal(stream.Raw(), []byte(bigRow)) {
		t.Errorf("Raw is %d bytes, not the %d-byte row", len(stream.Raw()), len(bigRow))
	}
}

// TestRunExperimentGrowsPastInitialBuffer: the experiment run stream
// decodes a cell row larger than its initial buffer, then the outcome.
func TestRunExperimentGrowsPastInitialBuffer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(bigRow + "\n"))
		_, _ = w.Write([]byte(`{"id":"e0","title":"t","verdict":"SUPPORTED","summary":"s"}` + "\n"))
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var keyLen int
	out, err := c.RunExperiment(context.Background(), "e0", client.RunExperimentRequest{}, func(res *service.CellResult) error {
		keyLen = len(res.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if keyLen != 2<<20 {
		t.Errorf("cell row key is %d bytes, want %d", keyLen, 2<<20)
	}
	if out.Verdict != "SUPPORTED" {
		t.Errorf("outcome = %+v", out)
	}
}
