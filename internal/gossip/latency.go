package gossip

import (
	"fmt"
	"strings"
	"time"

	"rumor/internal/xrand"
)

// Latency distribution kinds.
const (
	// LatencyNone injects no latency (the default).
	LatencyNone = ""
	// LatencyFixed sleeps exactly Mean before each transmission.
	LatencyFixed = "fixed"
	// LatencyExp samples Exp(1/Mean) per transmission.
	LatencyExp = "exp"
	// LatencyUniform samples uniformly from [0, 2*Mean].
	LatencyUniform = "uniform"
)

// maxLatencyMean bounds the configured mean so a mistyped flag cannot
// wedge a round for minutes.
const maxLatencyMean = 5 * time.Second

// LatencySpec describes the per-link latency distribution applied to
// every gossip-plane transmission (pushes and pull exchanges). The
// zero value injects nothing.
type LatencySpec struct {
	// Dist is "", "fixed", "exp", or "uniform".
	Dist string `json:"dist,omitempty"`
	// Mean is the distribution mean (nanoseconds on the wire).
	Mean time.Duration `json:"mean,omitempty"`
}

// Validate checks the spec.
func (s LatencySpec) Validate() error {
	switch s.Dist {
	case LatencyNone:
		if s.Mean != 0 {
			return fmt.Errorf("gossip: latency mean %v without a distribution", s.Mean)
		}
		return nil
	case LatencyFixed, LatencyExp, LatencyUniform:
		if s.Mean <= 0 {
			return fmt.Errorf("gossip: latency %q needs a positive mean, got %v", s.Dist, s.Mean)
		}
		if s.Mean > maxLatencyMean {
			return fmt.Errorf("gossip: latency mean %v exceeds the %v cap", s.Mean, maxLatencyMean)
		}
		return nil
	default:
		return fmt.Errorf("gossip: unknown latency distribution %q", s.Dist)
	}
}

// sample draws one link delay of a validated spec. The exponential case
// is xrand's Exp, so live latency and the simulator's timing model share
// one sampler.
func (s LatencySpec) sample(rng *xrand.RNG) time.Duration {
	switch s.Dist {
	case LatencyFixed:
		return s.Mean
	case LatencyExp:
		d := time.Duration(rng.Exp(1/s.Mean.Seconds()) * float64(time.Second))
		if d > 4*s.Mean {
			d = 4 * s.Mean // clip the tail: a run must not stall on one draw
		}
		return d
	case LatencyUniform:
		return time.Duration(rng.Float64() * 2 * float64(s.Mean))
	default:
		return 0
	}
}

// ParseLatency parses a flag-style latency spec: "" or "none",
// "fixed:5ms", "exp:10ms", "uniform:2ms".
func ParseLatency(s string) (LatencySpec, error) {
	if s == "" || s == "none" {
		return LatencySpec{}, nil
	}
	kind, mean, ok := strings.Cut(s, ":")
	if !ok {
		return LatencySpec{}, fmt.Errorf("gossip: latency %q: want dist:mean (e.g. exp:10ms)", s)
	}
	d, err := time.ParseDuration(mean)
	if err != nil {
		return LatencySpec{}, fmt.Errorf("gossip: latency %q: %v", s, err)
	}
	spec := LatencySpec{Dist: kind, Mean: d}
	if err := spec.Validate(); err != nil {
		return LatencySpec{}, err
	}
	return spec, nil
}
