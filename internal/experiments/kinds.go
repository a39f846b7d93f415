package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"rumor/internal/core"
	"rumor/internal/coupling"
	"rumor/internal/graph"
	"rumor/internal/harness"
	"rumor/internal/service"
	"rumor/internal/spectral"
	"rumor/internal/xrand"
)

// Experiment-specific cell kinds. Registering them with the service
// registry lets the coupling ladder, the lower-bound block coupling,
// the Lemma 8 sampler, the spectral-gap estimator, and the literal
// Section 2 asynchronous process ride the shared executor: they are
// scheduled, deduplicated, cached, and streamed exactly like
// spreading-time cells.
// Importing this package (as cmd/experiments and cmd/rumord do) makes
// the kinds available to any runner.
const (
	// KindCouplingUpper runs the upper-bound coupling (Lemmas 9–10):
	// ppx, ppy, and pp-a on shared randomness. Times[t] is the trial's
	// max_v(r'_v - 2 r_v); Series["async_excess"][t] its
	// max_v(t_v - 4 r'_v).
	KindCouplingUpper = "coupling-upper"
	// KindCouplingLower runs the lower-bound block coupling (Lemmas
	// 13–14, Remark 12). Times[t] is the trial's step count τ; Series
	// carry the ρ decomposition and the exact invariants (1 = held).
	KindCouplingLower = "coupling-lower"
	// KindLemma8 rejection-samples the conditional law of Lemma 8
	// (graphless). Times are the accepted conditional samples,
	// Series["reference"] fresh Exp(kλ) samples, Values["attempts"]
	// the number of raw draws.
	KindLemma8 = "lemma8"
	// KindSpectralGap estimates the lazy-walk spectral gap by power
	// iteration (Params["iters"] iterations, default 5000). Times[t]
	// is the per-trial gap estimate.
	KindSpectralGap = "spectral-gap"
	// KindAsyncReference runs the asynchronous process by the literal
	// Section 2 definition of the cell's view (core.RunAsyncReference:
	// one clock record per clock of the view). Times[t] is the trial's
	// spreading time.
	KindAsyncReference = "async-reference"
)

func init() {
	service.MustRegisterKind(service.CellKind{
		Name:       KindCouplingUpper,
		NeedsGraph: true,
		Validate:   validateBareGraphCell,
		Run:        runCouplingUpper,
	})
	service.MustRegisterKind(service.CellKind{
		Name:       KindCouplingLower,
		NeedsGraph: true,
		Validate:   validateBareGraphCell,
		Run:        runCouplingLower,
	})
	service.MustRegisterKind(service.CellKind{
		Name:     KindLemma8,
		Validate: validateLemma8,
		Run:      runLemma8,
	})
	service.MustRegisterKind(service.CellKind{
		Name:       KindSpectralGap,
		NeedsGraph: true,
		Validate:   validateSpectralGap,
		Run:        runSpectralGap,
	})
	service.MustRegisterKind(service.CellKind{
		Name:       KindAsyncReference,
		NeedsGraph: true,
		Validate:   validateAsyncReference,
		Run:        runAsyncReference,
	})
}

// validateBareGraphCell rejects scenario fields the coupling engines do
// not model (they implement the paper's lossless single-source
// processes only).
func validateBareGraphCell(c service.CellSpec) error {
	if len(c.Params) > 0 {
		return fmt.Errorf("coupling cells take no params")
	}
	c.Source = 0 // the one scenario field the coupling engines read
	return validateBareScenario(c)
}

// validateBareScenario rejects every scenario field, source included,
// of a kind that fixes its own process: set, one would fork the cell's
// key without changing what it measures.
func validateBareScenario(c service.CellSpec) error {
	if c.Protocol != "" || c.Timing != "" || c.View != "" || c.Variant != "" || c.Quasirandom || c.Source != 0 ||
		c.LossProb != 0 || len(c.ExtraSources) > 0 || len(c.Crashes) > 0 || len(c.CoverageFracs) > 0 {
		return fmt.Errorf("the kind fixes its own process; protocol/timing/view/variant/quasirandom/source/" +
			"loss/extra sources/crashes/coverage fractions must be unset")
	}
	return nil
}

// asyncReferenceMaxN bounds the reference cells: the reference scans
// every clock of the view on every tick, so its cost grows with n times
// the edge count.
const asyncReferenceMaxN = 64

// validateAsyncReference accepts a plain asynchronous time cell on at
// most asyncReferenceMaxN nodes.
func validateAsyncReference(c service.CellSpec) error {
	if c.N > asyncReferenceMaxN {
		return fmt.Errorf("n = %d (want <= %d)", c.N, asyncReferenceMaxN)
	}
	if c.Variant != "" || c.Quasirandom || c.LossProb != 0 || len(c.ExtraSources) > 0 ||
		len(c.Crashes) > 0 || len(c.CoverageFracs) > 0 || len(c.Params) > 0 {
		return fmt.Errorf("async-reference cells run the plain asynchronous process only")
	}
	_, err := asyncReferenceConfig(c)
	return err
}

// asyncReferenceConfig is the reference's configuration for the cell's
// timing, protocol and view.
func asyncReferenceConfig(c service.CellSpec) (core.AsyncConfig, error) {
	if c.Timing != service.TimingAsync {
		return core.AsyncConfig{}, fmt.Errorf("timing %q (want async)", c.Timing)
	}
	proto, err := service.ParseProtocol(c.Protocol)
	if err != nil {
		return core.AsyncConfig{}, err
	}
	view, err := service.ParseView(c.View)
	return core.AsyncConfig{Protocol: proto, View: view}, err
}

func runCouplingUpper(ctx context.Context, cell service.CellSpec, g *graph.Graph, trialWorkers int) (*service.KindResult, error) {
	src := graph.NodeID(cell.Source)
	async := make([]float64, cell.Trials)
	r := harness.Runner{Trials: cell.Trials, Seed: cell.TrialSeed, Workers: trialWorkers}
	times, err := r.Run(func(t int, rng *xrand.RNG) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		res, err := coupling.RunUpper(g, src, rng.Uint64())
		if err != nil {
			return 0, err
		}
		async[t] = res.MaxAsyncExcess()
		return float64(res.MaxPPYExcess()), nil
	})
	if err != nil {
		return nil, err
	}
	return &service.KindResult{
		Times:  times,
		Series: map[string][]float64{"async_excess": async},
	}, nil
}

func runCouplingLower(ctx context.Context, cell service.CellSpec, g *graph.Graph, trialWorkers int) (*service.KindResult, error) {
	src := graph.NodeID(cell.Source)
	series := map[string][]float64{
		"rho":         make([]float64, cell.Trials),
		"rho_left":    make([]float64, cell.Trials),
		"rho_special": make([]float64, cell.Trials),
		"subset":      make([]float64, cell.Trials),
		"seq_par":     make([]float64, cell.Trials),
	}
	r := harness.Runner{Trials: cell.Trials, Seed: cell.TrialSeed, Workers: trialWorkers}
	times, err := r.Run(func(t int, rng *xrand.RNG) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		res, err := coupling.RunLower(g, src, rng.Uint64())
		if err != nil {
			return 0, err
		}
		series["rho"][t] = float64(res.Rho)
		series["rho_left"][t] = float64(res.RhoLeft)
		series["rho_special"][t] = float64(res.RhoSpecial)
		series["subset"][t] = boolUnit(res.SubsetInvariantHeld)
		series["seq_par"][t] = boolUnit(res.SequentialParallelAgreed)
		return float64(res.Tau), nil
	})
	if err != nil {
		return nil, err
	}
	return &service.KindResult{Times: times, Series: series}, nil
}

func boolUnit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// param reads a cell parameter with a default.
func param(cell service.CellSpec, key string, def float64) float64 {
	if v, ok := cell.Params[key]; ok {
		return v
	}
	return def
}

// lemma8MaxK bounds the variable count: the alpha vector is allocated
// per spec (a cell is one API request away, so unbounded k would let a
// single request allocate arbitrarily).
const lemma8MaxK = 64

// validateLemma8 refuses what the graphless sampler would ignore and
// bounds its parameter space.
func validateLemma8(c service.CellSpec) error {
	if err := validateBareScenario(c); err != nil {
		return err
	}
	k := int(param(c, "k", 6))
	if k < 1 || k > lemma8MaxK {
		return fmt.Errorf("param k = %v (want [1, %d])", param(c, "k", 6), lemma8MaxK)
	}
	lambda := param(c, "lambda", 0.7)
	if !(lambda > 0) || lambda > 1e6 {
		return fmt.Errorf("param lambda = %v (want (0, 1e6])", lambda)
	}
	target := int(param(c, "target", 4))
	if target < 0 || target >= k {
		return fmt.Errorf("param target = %v (want [0, k))", param(c, "target", 4))
	}
	for key, v := range c.Params {
		switch {
		case key == "k" || key == "lambda" || key == "target":
		case strings.HasPrefix(key, "alpha"):
			idx, err := strconv.Atoi(strings.TrimPrefix(key, "alpha"))
			if err != nil || idx < 0 || idx >= k {
				return fmt.Errorf("param %q does not index a variable in [0, k)", key)
			}
			if v < 0 {
				return fmt.Errorf("param %q = %v (want >= 0)", key, v)
			}
		default:
			return fmt.Errorf("unknown param %q (want k, lambda, target, alphaN)", key)
		}
	}
	return nil
}

// spectralGapMaxIters caps one cell's power-iteration work: the
// iteration itself is not context-interruptible, so an unbounded count
// would pin a scheduler worker with no way to cancel.
const spectralGapMaxIters = 1_000_000

func validateSpectralGap(c service.CellSpec) error {
	if err := validateBareScenario(c); err != nil {
		return err
	}
	iters := param(c, "iters", 5000)
	if iters != math.Trunc(iters) || iters < 1 || iters > spectralGapMaxIters {
		return fmt.Errorf("param iters = %v (want an integer in [1, %d])", iters, spectralGapMaxIters)
	}
	for key := range c.Params {
		if key != "iters" {
			return fmt.Errorf("unknown param %q (want iters)", key)
		}
	}
	return nil
}

// lemma8MaxAttempts caps the rejection sampler so a mis-parameterized
// cell fails instead of spinning.
const lemma8MaxAttempts = 100_000_000

func runLemma8(ctx context.Context, cell service.CellSpec, _ *graph.Graph, _ int) (*service.KindResult, error) {
	k := int(param(cell, "k", 6))
	lambda := param(cell, "lambda", 0.7)
	targetJ := int(param(cell, "target", 4))
	if k < 1 || lambda <= 0 || targetJ < 0 || targetJ >= k {
		return nil, fmt.Errorf("experiments: lemma8 cell with k=%d lambda=%v target=%d", k, lambda, targetJ)
	}
	alphas := make([]float64, k)
	for i := range alphas {
		alphas[i] = param(cell, fmt.Sprintf("alpha%d", i), 0)
	}

	// The sampler is inherently sequential (one rejection stream), so
	// trial parallelism does not apply; determinism comes from the
	// single TrialSeed-rooted stream.
	//
	// The truncation event A = {∀i: Z_i > α_i} is sampled exactly by
	// memorylessness — Z_i | Z_i > α_i ≡ α_i + Exp(λ) — instead of by
	// rejection (which would discard a 1 - e^{-λΣα} fraction of
	// attempts). The argmin conditioning {J = j}, the substance of the
	// lemma, stays a genuine rejection.
	rng := xrand.New(cell.TrialSeed)
	conditional := make([]float64, 0, cell.Trials)
	zs := make([]float64, k)
	attempts := 0
	for len(conditional) < cell.Trials {
		if attempts&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		attempts++
		if attempts > lemma8MaxAttempts {
			return nil, fmt.Errorf("experiments: Lemma 8 rejection sampling too slow (%d accepted after %d draws)",
				len(conditional), attempts)
		}
		argmin := 0
		for i := 0; i < k; i++ {
			zs[i] = alphas[i] + rng.Exp(lambda)
			if zs[i] < zs[argmin] {
				argmin = i
			}
		}
		if argmin != targetJ {
			continue
		}
		z := zs[0] - alphas[0]
		for i := 1; i < k; i++ {
			if v := zs[i] - alphas[i]; v < z {
				z = v
			}
		}
		conditional = append(conditional, z)
	}

	// Reference sample from Exp(kλ), drawn from the same stream (after
	// the conditional draws, so it is reproducible but independent).
	ref := make([]float64, cell.Trials)
	for i := range ref {
		ref[i] = rng.Exp(float64(k) * lambda)
	}
	return &service.KindResult{
		Times:  conditional,
		Series: map[string][]float64{"reference": ref},
		Values: map[string]float64{"attempts": float64(attempts)},
	}, nil
}

func runSpectralGap(ctx context.Context, cell service.CellSpec, g *graph.Graph, trialWorkers int) (*service.KindResult, error) {
	iters := int(param(cell, "iters", 5000))
	if iters < 1 {
		return nil, fmt.Errorf("experiments: spectral-gap cell with iters=%d", iters)
	}
	r := harness.Runner{Trials: cell.Trials, Seed: cell.TrialSeed, Workers: trialWorkers}
	times, err := r.Run(func(_ int, rng *xrand.RNG) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return spectral.SpectralGapLazy(g, iters, rng)
	})
	if err != nil {
		return nil, err
	}
	return &service.KindResult{Times: times}, nil
}

func runAsyncReference(ctx context.Context, cell service.CellSpec, g *graph.Graph, trialWorkers int) (*service.KindResult, error) {
	cfg, err := asyncReferenceConfig(cell)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", service.ErrBadSpec, err)
	}
	if n := g.NumNodes(); cell.Source >= n {
		return nil, fmt.Errorf("%w: %w: %d (n=%d)", service.ErrBadSpec, core.ErrBadSource, cell.Source, n)
	}
	src := graph.NodeID(cell.Source)
	r := harness.Runner{Trials: cell.Trials, Seed: cell.TrialSeed, Workers: trialWorkers}
	times, err := r.Run(func(_ int, rng *xrand.RNG) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		res, err := core.RunAsyncReference(g, src, cfg, rng)
		if err != nil {
			return 0, err
		}
		return core.Outcome{Async: res}.SpreadingTime()
	})
	if err != nil {
		return nil, err
	}
	return &service.KindResult{Times: times}, nil
}

// maxOf returns the maximum of a non-empty series (negative infinity
// for an empty one).
func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// allUnit reports whether every entry of a 0/1 series is 1.
func allUnit(xs []float64) bool {
	for _, x := range xs {
		if x != 1 {
			return false
		}
	}
	return true
}
