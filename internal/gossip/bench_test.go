package gossip

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// hotFrames are the frames of a synchronous push-pull trial: the
// gossip plane's push and pull, the coordinator's round, and each
// one's reply. out receives the decoded payload.
var hotFrames = []struct {
	name    string
	method  string
	payload interface{}
	out     interface{}
}{
	{"push", MethodPush, Rumor{Round: 3}, new(Rumor)},
	{"push-reply", MethodPush, Ack{}, new(Ack)},
	{"pull", MethodPull, PullRequest{Round: 3}, new(PullRequest)},
	{"pull-reply", MethodPull, PullReply{Informed: true}, new(PullReply)},
	{"round", MethodRound, RoundCmd{Round: 3}, new(RoundCmd)},
	{"round-reply", MethodRound, RoundAck{Informed: true}, new(RoundAck)},
}

// BenchmarkWriteFrame is what a sender does per message: build the
// envelope and write its frame.
func BenchmarkWriteFrame(b *testing.B) {
	for _, h := range hotFrames {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				env, err := NewEnvelope(h.method, 5, h.payload)
				if err != nil {
					b.Fatal(err)
				}
				if err := WriteFrame(io.Discard, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadFrame is what a receiver does per message: read the
// frame and decode its payload.
func BenchmarkReadFrame(b *testing.B) {
	for _, h := range hotFrames {
		b.Run(h.name, func(b *testing.B) {
			env, err := NewEnvelope(h.method, 5, h.payload)
			if err != nil {
				b.Fatal(err)
			}
			frame, err := encodeFrame(env)
			if err != nil {
				b.Fatal(err)
			}
			r := bytes.NewReader(frame)
			b.ReportAllocs()
			for b.Loop() {
				r.Reset(frame)
				env, err := ReadFrame(r)
				if err != nil {
					b.Fatal(err)
				}
				if err := env.Decode(h.out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLinkRoundTrip is one push and its reply over a reused
// loopback link: both ends' framing plus the kernel's round trip.
func BenchmarkLinkRoundTrip(b *testing.B) {
	node := NewNode(nil)
	if err := node.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	tr := newTransport(1, &Metrics{})
	defer tr.close()
	b.ReportAllocs()
	for b.Loop() {
		env, err := NewEnvelope(MethodPush, 3, Rumor{Round: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.call(node.Addr(), env, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
