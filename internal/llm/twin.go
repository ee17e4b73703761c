package llm

import (
	"fmt"
	"math"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
)

// Generation is one sampled model response to one question.
type Generation struct {
	// OutputTokens = ThinkTokens + AnswerTokens (what the engine decodes).
	OutputTokens int
	ThinkTokens  int
	AnswerTokens int
	// Correct reports whether the extracted answer matches ground truth.
	Correct bool
	// Answer identifies the response for majority voting: 0 is the
	// correct answer; positive values identify wrong-answer clusters.
	Answer int
	// Truncated marks generations cut by a hard token limit.
	Truncated bool
}

// Twin samples generations that statistically match one model's measured
// behaviour on one benchmark.
//
// A Twin is not safe for concurrent use: it memoizes censored-length
// solves across calls. Build one per goroutine.
type Twin struct {
	Spec  model.Spec
	Bench data.Benchmark
	seed  uint64
	// meanDifficulty centres the difficulty adjustment so bank-level
	// accuracy stays on calibration.
	meanDifficulty float64
	// difficultySlope couples per-question accuracy to difficulty.
	difficultySlope float64
	// muCache memoizes solveCensoredMu on its exact (target, sigma, cap)
	// inputs, allocated on first use. A question's target depends only on
	// the question and the policy, so a parallel-scaling sweep re-asking
	// it at every scaling factor solves the root once.
	muCache map[[3]float64]float64
}

// NewTwin builds a twin for a model on a benchmark bank. The bank is used
// only to centre the difficulty adjustment.
func NewTwin(spec model.Spec, bank *data.Bank, seed uint64) *Twin {
	md := 0.5
	if bank != nil && len(bank.Questions) > 0 {
		sum := 0.0
		for _, q := range bank.Questions {
			sum += q.Difficulty
		}
		md = sum / float64(len(bank.Questions))
	}
	bench := data.MMLURedux
	if bank != nil {
		bench = bank.Benchmark
	}
	return &Twin{
		Spec:            spec,
		Bench:           bench,
		seed:            seed,
		meanDifficulty:  md,
		difficultySlope: 0.55,
	}
}

// Behavior resolves the calibrated cell for a policy, or an error when
// neither the paper nor the interpolator covers the combination.
func (t *Twin) Behavior(pol control.Policy) (Behavior, error) {
	if err := pol.Validate(); err != nil {
		return Behavior{}, err
	}
	if beh, ok := Calibrated(t.Spec.ID, t.Bench, pol.Key()); ok {
		return beh, nil
	}
	// Arbitrary hard budgets interpolate along the model's budget curve.
	if pol.Kind == control.Hard {
		if beh, ok := InterpolateHardBudget(t.Spec.ID, t.Bench, pol.Budget); ok {
			return beh, nil
		}
	}
	return Behavior{}, fmt.Errorf("llm: no calibration for %s on %s with %s", t.Spec.ID, t.Bench, pol.Key())
}

// questionRNG derives the deterministic stream for one (question, config)
// pair; order of evaluation never changes results.
func (t *Twin) questionRNG(qIdx int, configKey string) *stats.RNG {
	name := fmt.Sprintf("llm/%s/%s/%s/q%d", t.Spec.ID, t.Bench, configKey, qIdx)
	return stats.NewRNG(t.seed, name)
}

// pCorrect samples the question's latent correctness probability for this
// model: the calibrated mean accuracy, tilted by question difficulty and
// dispersed by a Beta distribution (majority voting exploits exactly this
// heterogeneity).
func (t *Twin) pCorrect(q data.Question, beh Behavior, rng *stats.RNG) float64 {
	// The difficulty tilt shrinks near the accuracy extremes: a model at
	// 1% (Natural-Plan 1.5B) or 87% (MMLU 14B) has little headroom either
	// side, and an unscaled tilt plus clamping would bias the bank mean
	// away from calibration.
	acc := beh.Accuracy
	tilt := t.difficultySlope * 4 * acc * (1 - acc)
	mu := acc + tilt*(t.meanDifficulty-q.Difficulty)
	floor := 0.02
	if acc/2 < floor {
		floor = acc / 2
	}
	mu = stats.Clamp(mu, floor, 0.985)
	nu := beh.Dispersion
	if nu <= 0 {
		nu = 4.0
	}
	return rng.Beta(nu*mu, nu*(1-mu))
}

// lengthTarget is the question's mean output length: the calibrated
// mean, correlated with difficulty (harder questions think longer).
func (t *Twin) lengthTarget(q data.Question, beh Behavior) float64 {
	diffFactor := 0.75 + 0.5*(q.Difficulty-t.meanDifficulty+0.5)
	target := beh.MeanTokens * diffFactor
	if target < 1 {
		target = 1
	}
	return target
}

// censoredMu returns the lognormal location whose mean, censored at cap,
// equals target (see solveCensoredMu), memoized per Twin. It returns 0
// without solving when no draw needs it: uncapped policies sample the
// plain lognormal, and a target at or above 0.995·cap samples the cap.
func (t *Twin) censoredMu(target, sigma float64, cap int) float64 {
	if cap <= 0 || target >= float64(cap)*0.995 {
		return 0
	}
	key := [3]float64{target, sigma, float64(cap)}
	if mu, ok := t.muCache[key]; ok {
		return mu
	}
	mu := solveCensoredMu(target, sigma, float64(cap))
	if t.muCache == nil {
		t.muCache = make(map[[3]float64]float64)
	}
	t.muCache[key] = mu
	return mu
}

// sampleLength draws one branch's output length: lognormal around target,
// and for hard policies censored at cap with location mu (from
// censoredMu), so the post-truncation mean still matches the table.
func sampleLength(target, mu, sigma float64, cap int, rng *stats.RNG) (tokens int, truncated bool) {
	if cap > 0 {
		raw := censoredLogNormalSample(rng, target, mu, sigma, float64(cap))
		n := int(math.Round(raw))
		if n < 1 {
			n = 1
		}
		if n >= cap {
			return cap, true
		}
		return n, false
	}
	n := int(math.Round(rng.LogNormalMean(target, sigma)))
	if n < 1 {
		n = 1
	}
	return n, false
}

// Generate samples one response (the SF=1 path).
func (t *Twin) Generate(q data.Question, pol control.Policy) (Generation, error) {
	gens, err := t.GenerateVotes(q, pol, 1)
	if err != nil {
		return Generation{}, err
	}
	return gens[0], nil
}

// GenerateVotes samples k parallel responses to one question. All k share
// the question's latent correctness probability and distractor profile
// (they are the same model on the same input); token sampling and answer
// choice are independent across branches — the setup of §V-E.
func (t *Twin) GenerateVotes(q data.Question, pol control.Policy, k int) ([]Generation, error) {
	if k < 1 {
		return nil, fmt.Errorf("llm: vote count must be >= 1, got %d", k)
	}
	beh, err := t.Behavior(pol)
	if err != nil {
		return nil, err
	}
	rng := t.questionRNG(q.Index, pol.Key())
	p := t.pCorrect(q, beh, rng)
	// The model's modal answer on this question: with probability VoteCorr
	// a branch repeats it rather than sampling fresh. The modal answer
	// follows the same distribution as a fresh sample, so single-sample
	// accuracy is exactly p regardless of the correlation.
	modal := sampleAnswer(q, p, -1, rng)

	// Every branch shares the question's length distribution, so the
	// censored-mean inversion runs at most once per call (and once per
	// Twin for a repeated question).
	target, cap := t.lengthTarget(q, beh), pol.Cap()
	mu := t.censoredMu(target, beh.Sigma, cap)
	out := make([]Generation, k)
	for i := range out {
		tokens, truncated := sampleLength(target, mu, beh.Sigma, cap, rng)
		g := Generation{OutputTokens: tokens, Truncated: truncated}
		g.ThinkTokens, g.AnswerTokens = splitThinkAnswer(t.Spec, pol, tokens)
		if k > 1 && rng.Bernoulli(beh.VoteCorr) {
			g.Answer = modal
		} else {
			g.Answer = sampleAnswer(q, p, i, rng)
		}
		g.Correct = g.Answer == 0
		out[i] = g
	}
	return out, nil
}

// sampleAnswer draws the answer identity: 0 for correct, otherwise a
// wrong-answer cluster id. Multiple-choice questions spread wrong mass
// over the question's distractor profile; exact-match questions mostly
// produce unique wrong answers, colliding at the WrongAttractor rate.
func sampleAnswer(q data.Question, p float64, voteIdx int, rng *stats.RNG) int {
	if rng.Bernoulli(p) {
		return 0
	}
	if q.Choices > 1 && len(q.DistractorBias) > 0 {
		return 1 + rng.Categorical(q.DistractorBias)
	}
	// Exact match: wrong answers collide onto a shared attractor with
	// probability WrongAttractor, else are effectively unique.
	if rng.Bernoulli(q.WrongAttractor) {
		return 1
	}
	return 1000 + voteIdx // unique per branch: never forms a majority
}

// splitThinkAnswer decomposes an output into chain-of-thought and answer
// spans. Reasoning models spend nearly everything thinking; NR injects a
// stub thinking block; direct models do not think at all.
func splitThinkAnswer(spec model.Spec, pol control.Policy, tokens int) (think, answer int) {
	switch {
	case pol.Kind == control.Direct || spec.Class == model.NonReasoning:
		return 0, tokens
	case pol.Kind == control.NoReason:
		think = 10 // "<think> Okay, I think I have finished thinking. </think>"
		if think > tokens {
			think = tokens
		}
		return think, tokens - think
	default:
		answer = 24
		if answer > tokens/4 {
			answer = tokens / 4
		}
		if answer < 1 {
			answer = 1
		}
		return tokens - answer, answer
	}
}

// normCDF is the standard normal CDF.
func normCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// censoredMean returns E[min(X, c)] for X ~ LogNormal(mu, sigma).
func censoredMean(mu, sigma, c float64) float64 {
	return censoredMeanLog(mu, sigma, c, math.Log(c))
}

// censoredMeanLog is censoredMean with lc = log(c) precomputed.
func censoredMeanLog(mu, sigma, c, lc float64) float64 {
	m := math.Exp(mu + sigma*sigma/2)
	return m*normCDF((lc-mu-sigma*sigma)/sigma) + c*(1-normCDF((lc-mu)/sigma))
}

// censoredLogNormalSample draws min(X, cap) for X ~ LogNormal(mu, sigma),
// where mu is the caller's solveCensoredMu(targetMean, sigma, cap), so
// that E[min(X, cap)] equals targetMean. When targetMean is at or above
// the cap the sample is the cap itself and no normal is drawn.
func censoredLogNormalSample(rng *stats.RNG, targetMean, mu, sigma, cap float64) float64 {
	if targetMean >= cap*0.995 {
		return cap
	}
	x := math.Exp(mu + sigma*rng.NormFloat64())
	if x > cap {
		return cap
	}
	return x
}

// solveCensoredMu inverts censoredMean over mu via bisection. lo always
// satisfies censoredMean < target and hi never does, so once the bracket
// is two adjacent doubles (mid rounds onto an end) every remaining step
// would leave it unchanged: stopping there returns the same bits as
// running all 60 steps.
func solveCensoredMu(target, sigma, c float64) float64 {
	lc := math.Log(c)
	lo := math.Log(target) - sigma*sigma/2 - 2 // censored mean < uncensored
	hi := lc + 4*sigma                         // pushes censored mean -> c
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if censoredMeanLog(mid, sigma, c, lc) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
