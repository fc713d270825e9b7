package sched

import (
	"fmt"
	"strings"
)

// PolicyParams are the cluster facts a named policy is built from: the
// cluster size N; R_limit in bytes/s, required by io-aware, adaptive,
// adaptive-naive and bb-io-aware and optional for plan; the burst-buffer
// pool plan and bb-io-aware plan against; and the adaptive two-group QoS
// fraction (0 = the paper's 1/2).
type PolicyParams struct {
	Nodes                          int
	Limit, BBCapacity, QoSFraction float64
}

// PolicySpec is one entry of the policy registry.
type PolicySpec struct {
	// Name is the registry spelling of the policy.
	Name string
	// BackfillMax, when nonzero, is the backfill depth the policy runs
	// at in place of the caller's (EASY for easy).
	BackfillMax int
	needsLimit  bool
	build       func(PolicyParams) Policy
}

// registry is every named policy, in the order PolicyNames lists them.
var registry = []PolicySpec{
	{Name: "default", build: func(p PolicyParams) Policy { return NodePolicy{TotalNodes: p.Nodes} }},
	{Name: "easy", BackfillMax: EASY, build: func(p PolicyParams) Policy { return NodePolicy{TotalNodes: p.Nodes} }},
	{Name: "io-aware", needsLimit: true, build: func(p PolicyParams) Policy { return ioAware(p) }},
	{Name: "adaptive", needsLimit: true, build: func(p PolicyParams) Policy {
		return AdaptivePolicy{TotalNodes: p.Nodes, ThroughputLimit: p.Limit, TwoGroup: true, QoSFraction: p.QoSFraction}
	}},
	{Name: "adaptive-naive", needsLimit: true, build: func(p PolicyParams) Policy {
		return AdaptivePolicy{TotalNodes: p.Nodes, ThroughputLimit: p.Limit, QoSFraction: p.QoSFraction}
	}},
	{Name: "plan", build: func(p PolicyParams) Policy {
		return PlanPolicy{TotalNodes: p.Nodes, BBCapacity: p.BBCapacity, ThroughputLimit: p.Limit}
	}},
	{Name: "bb-io-aware", needsLimit: true, build: func(p PolicyParams) Policy { return BBAwarePolicy{Inner: ioAware(p), Capacity: p.BBCapacity} }},
	{Name: "tbf", build: func(p PolicyParams) Policy { return TBFPolicy{TotalNodes: p.Nodes} }},
	{Name: "tbf-straggler", build: func(p PolicyParams) Policy { return TBFPolicy{TotalNodes: p.Nodes, Straggler: true} }},
}

func ioAware(p PolicyParams) IOAwarePolicy {
	return IOAwarePolicy{TotalNodes: p.Nodes, ThroughputLimit: p.Limit}
}

// policyAliases are the slurm.conf spellings of registry names.
var policyAliases = map[string]string{"ioaware": "io-aware", "adaptivenaive": "adaptive-naive"}

// PolicyNames lists the registry's policy names.
func PolicyNames() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// LookupPolicy finds the named policy. The name may be in any case or a
// slurm.conf alias ("ioaware", "adaptivenaive"); an unknown name's error
// lists every policy.
func LookupPolicy(name string) (PolicySpec, error) {
	lower := strings.ToLower(name)
	if canon, ok := policyAliases[lower]; ok {
		lower = canon
	}
	for _, s := range registry {
		if s.Name == lower {
			return s, nil
		}
	}
	return PolicySpec{}, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
}

// New builds the policy from pp.
func (s PolicySpec) New(pp PolicyParams) (Policy, error) {
	if s.needsLimit && !(pp.Limit > 0) {
		return nil, fmt.Errorf("%s policy needs a positive throughput limit, got %g", s.Name, pp.Limit)
	}
	return s.build(pp), nil
}

// NewPolicy builds the named policy from pp (LookupPolicy, then New).
func NewPolicy(name string, pp PolicyParams) (Policy, error) {
	s, err := LookupPolicy(name)
	if err != nil {
		return nil, err
	}
	return s.New(pp)
}

// ThroughputLimit is the hard throughput limit R_limit p reserves against,
// through any bb+, tetris+ or tbf+ wrapper: 0 for a policy without one
// and for a policy from outside this package.
func ThroughputLimit(p Policy) float64 {
	m, ok := modelOf(p)
	if !ok {
		return 0
	}
	return m.limit
}
