package des

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// RNG is a named, seeded random stream. Every stochastic component of the
// simulation (file-system noise, volume placement, arrival jitter, ...)
// draws from its own RNG derived from the experiment seed and a stable
// component name, so that adding a new consumer of randomness never
// perturbs the draws seen by existing components.
type RNG struct {
	*rand.Rand
}

// NewRNG derives a random stream from an experiment seed and a component
// name. The same (seed, name) pair always yields the same stream.
func NewRNG(seed uint64, name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	sub := h.Sum64()
	return &RNG{Rand: rand.New(rand.NewPCG(seed, sub))}
}

// LogNormal draws a log-normal sample with the given mean and sigma of the
// underlying normal. With mu chosen as -sigma^2/2 the multiplicative noise
// has unit mean.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Jitter returns a duration uniformly drawn from [0, d).
func (r *RNG) Jitter(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(r.Int64N(int64(d)))
}
