package client

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"rumor/internal/api"
)

// FuzzResultStream feeds arbitrary bytes, as a server could send them,
// through both stream readers. Neither panics, and each stops within a
// bounded number of calls to Next.
//
// ResultStream: every call returns a result or an error, never both
// and never neither; the error is io.EOF, the job's *api.Error row or
// a terminalStreamError; it comes within one call per line plus one,
// and every call after it returns io.EOF.
//
// EventStream: every call returns an event or ends the stream with
// io.EOF or io.ErrUnexpectedEOF (a partial frame), after which every
// call returns io.EOF; an event that comes with an error is a state,
// cell or error event whose payload did not decode, and an event with
// none carries its typed payload. The end comes within one call per
// byte plus one.
func FuzzResultStream(f *testing.F) {
	f.Add([]byte(`{"index":0,"key":"k0"}` + "\n" + `{"index":1,"key":"k1"}` + "\n"))
	f.Add([]byte(`{"index":0}` + "\n" + `{"error":{"code":"cancelled","message":"job cancelled"}}` + "\n"))
	f.Add([]byte(`{"index":1,` + "\n"))
	f.Add([]byte("\n\n{}\r\n"))
	f.Add([]byte(`{"error":null,"index":2}`))
	f.Add([]byte("event: state\ndata: {\"id\":\"job-1\",\"state\":\"running\"}\n\n" +
		"event: cell\nid: 0\ndata: {\"index\":0,\"key\":\"k0\"}\n\n" +
		"event: error\ndata: {\"error\":{\"code\":\"failed\",\"message\":\"x\"}}\n\n"))
	f.Add([]byte("event: cell\nid: x\ndata: {\"index\":\ndata: 0}\n\n: comment\n\nevent: error\ndata: {}\n\n"))
	f.Add([]byte("event: state\ndata: nope\n\nevent: cell\r\ndata:"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.Count(data, []byte{'\n'}) + 1
		rs := newResultStream(io.NopCloser(bytes.NewReader(data)))
		for calls := 1; ; calls++ {
			if calls > lines+1 {
				t.Fatalf("ResultStream.Next still going after %d calls on %d lines", calls-1, lines)
			}
			res, err := rs.Next()
			if err == nil {
				if res == nil {
					t.Fatal("ResultStream.Next returned neither a result nor an error")
				}
				continue
			}
			if res != nil {
				t.Fatalf("ResultStream.Next returned a result with error %v", err)
			}
			var apiErr *api.Error
			var term terminalStreamError
			if !errors.Is(err, io.EOF) && !errors.As(err, &apiErr) && !errors.As(err, &term) {
				t.Fatalf("ResultStream.Next: untyped error %T: %v", err, err)
			}
			if _, again := rs.Next(); !errors.Is(again, io.EOF) {
				t.Fatalf("ResultStream.Next after %v returned %v, want io.EOF", err, again)
			}
			break
		}

		r := bytes.NewReader(data)
		es := &EventStream{body: io.NopCloser(r), br: bufio.NewReader(r)}
		for calls := 1; ; calls++ {
			if calls > len(data)+1 {
				t.Fatalf("EventStream.Next still going after %d calls on %d bytes", calls-1, len(data))
			}
			ev, err := es.Next()
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				if ev != nil {
					t.Fatalf("EventStream.Next returned an event with %v", err)
				}
				if _, again := es.Next(); !errors.Is(again, io.EOF) {
					t.Fatalf("EventStream.Next after %v returned %v, want io.EOF", err, again)
				}
				break
			}
			if ev == nil {
				t.Fatalf("EventStream.Next returned no event with error %v", err)
			}
			switch {
			case err != nil && ev.Type != api.EventState && ev.Type != api.EventCell && ev.Type != api.EventError:
				t.Fatalf("%q event with error %v", ev.Type, err)
			case err == nil && ev.Type == api.EventState && ev.Status == nil,
				err == nil && ev.Type == api.EventCell && ev.Result == nil,
				err == nil && ev.Type == api.EventError && ev.Err == nil:
				t.Fatalf("%q event without its payload: %+v", ev.Type, ev)
			}
		}
	})
}
