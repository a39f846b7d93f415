package gossip

import (
	"strings"
	"testing"
	"time"

	"rumor/internal/service"
)

func TestRunOverlaySync(t *testing.T) {
	spec := testSpec("complete", 8, "push-pull", service.TimingSync)
	spec.Cell.Trials = 3
	c, err := NewSelfHost(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunOverlay(c, OverlayConfig{Spec: spec, LiveTrials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 8 {
		t.Fatalf("n = %d", res.N)
	}
	if res.Live.SpreadTime <= 0 || res.Sim.SpreadTime <= 0 {
		t.Fatalf("spread times live=%v sim=%v", res.Live.SpreadTime, res.Sim.SpreadTime)
	}
	if res.Ratio <= 0 {
		t.Fatalf("ratio = %v", res.Ratio)
	}
	// On a lossless complete graph both sides finish in a handful of
	// rounds; the ratio must be same-order, not orders apart.
	if res.Ratio < 0.1 || res.Ratio > 10 {
		t.Fatalf("live/sim ratio %v outside sanity band", res.Ratio)
	}
	q100 := service.CoverageName(1.0)
	if res.Live.Coverage[q100] != res.Live.SpreadTime {
		t.Fatalf("live q100 %v != spread %v", res.Live.Coverage[q100], res.Live.SpreadTime)
	}

	var sb strings.Builder
	if err := res.RenderText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E16 overlay", "spreading-time ratio", "frac", "1.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered overlay missing %q:\n%s", want, out)
		}
	}
}

func TestRunOverlayFlagsLiveOnlyEffects(t *testing.T) {
	spec := testSpec("complete", 4, "push-pull", service.TimingSync)
	spec.Threshold = 2
	spec.Latency = LatencySpec{Dist: LatencyFixed, Mean: time.Millisecond}
	c, err := NewSelfHost(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunOverlay(c, OverlayConfig{Spec: spec, LiveTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LiveOnly) != 2 {
		t.Fatalf("live-only effects = %v", res.LiveOnly)
	}
}
