package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"rumor/internal/api"
	"rumor/internal/service"
)

// Event is one server-sent event from GET /v1/jobs/{id}/events,
// decoded into its typed payload.
type Event struct {
	// Type is the event name: api.EventState, api.EventCell, or
	// api.EventError.
	Type string
	// ID is the cell index for cell events (the SSE event id, i.e. the
	// resume cursor); -1 otherwise.
	ID int
	// Status is set for state events.
	Status *service.JobStatus
	// Result is set for cell events.
	Result *service.CellResult
	// Err is set for error events (the job failed or was cancelled).
	Err *api.Error
	// Data is the raw event payload.
	Data []byte
}

// EventStream iterates one SSE connection. The server closes the
// stream after the job's terminal state event (and error event, if
// any); Next then returns io.EOF. A transport drop surfaces as an
// error — reconnect with Client.Watch passing the last cell event's ID
// to resume.
type EventStream struct {
	body io.ReadCloser
	br   *bufio.Reader
}

// Next returns the next event, io.EOF at end of stream, or a transport
// error.
func (s *EventStream) Next() (*Event, error) {
	ev := &Event{ID: -1}
	var data []string
	dispatch := false
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			// A partial line at EOF (or a mid-frame drop) is a broken
			// frame, not a clean end of stream.
			if err == io.EOF && line == "" && !dispatch {
				return nil, io.EOF
			}
			if err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if !dispatch {
				continue // stray blank line between events
			}
			ev.Data = []byte(strings.Join(data, "\n"))
			return ev, s.decode(ev)
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "event":
			ev.Type = value
			dispatch = true
		case "id":
			if id, err := strconv.Atoi(value); err == nil {
				ev.ID = id
			}
			dispatch = true
		case "data":
			data = append(data, value)
			dispatch = true
		}
	}
}

// decode fills the typed payload from ev.Data based on ev.Type.
func (s *EventStream) decode(ev *Event) error {
	switch ev.Type {
	case api.EventState:
		ev.Status = new(service.JobStatus)
		if err := json.Unmarshal(ev.Data, ev.Status); err != nil {
			return fmt.Errorf("client: decoding state event: %w", err)
		}
	case api.EventCell:
		ev.Result = new(service.CellResult)
		if err := service.DecodeResult(ev.Data, ev.Result); err != nil {
			return fmt.Errorf("client: decoding cell event: %w", err)
		}
	case api.EventError:
		var env api.Envelope
		if err := json.Unmarshal(ev.Data, &env); err != nil || env.Error == nil {
			return fmt.Errorf("client: decoding error event %q", ev.Data)
		}
		ev.Err = env.Error
	}
	return nil
}

// Close releases the connection.
func (s *EventStream) Close() error { return s.body.Close() }

// Watch opens the job's server-sent event stream: push notification of
// every state transition ("state" events) and cell completion ("cell"
// events, in canonical cell order). lastEventID resumes cell events
// after that index (-1 subscribes from the beginning — the standard
// EventSource reconnect semantics). The stream ends when the job
// reaches a terminal state.
func (c *Client) Watch(ctx context.Context, id string, lastEventID int) (*EventStream, error) {
	header := make(http.Header)
	header.Set("Accept", "text/event-stream")
	if lastEventID >= 0 {
		header.Set(api.LastEventIDHeader, strconv.Itoa(lastEventID))
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/events", header, nil)
	if err != nil {
		return nil, err
	}
	return &EventStream{body: resp.Body, br: bufio.NewReader(resp.Body)}, nil
}
