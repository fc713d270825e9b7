package sched

import "testing"

// TestThroughputLimitMatchesTypeSwitch holds ThroughputLimit, which reads
// the reservation model, to the type switch over policy shapes that
// stated R_limit before it, on every shape the repository builds.
func TestThroughputLimitMatchesTypeSwitch(t *testing.T) {
	var typeSwitch func(p Policy) float64
	typeSwitch = func(p Policy) float64 {
		switch q := p.(type) {
		case IOAwarePolicy:
			return q.ThroughputLimit
		case AdaptivePolicy:
			return q.ThroughputLimit
		case TetrisPolicy:
			return typeSwitch(q.Inner)
		case PlanPolicy:
			return q.ThroughputLimit
		case BBAwarePolicy:
			return typeSwitch(q.Inner)
		case TBFAwarePolicy:
			return typeSwitch(q.Inner)
		default:
			return 0
		}
	}
	const n, limit, bb = 15, 20 << 30, 64 << 30
	node := NodePolicy{TotalNodes: n}
	io := IOAwarePolicy{TotalNodes: n, ThroughputLimit: limit}
	adaptive := AdaptivePolicy{TotalNodes: n, ThroughputLimit: limit / 2, TwoGroup: true}
	policies := []Policy{
		node, io, adaptive,
		IOAwarePolicy{TotalNodes: n, ThroughputLimit: limit, IgnoreMeasured: true},
		AdaptivePolicy{TotalNodes: n, ThroughputLimit: limit},
		PlanPolicy{TotalNodes: n, BBCapacity: bb},
		PlanPolicy{TotalNodes: n, BBCapacity: bb, ThroughputLimit: limit},
		TBFPolicy{TotalNodes: n}, TBFPolicy{TotalNodes: n, Straggler: true},
		BBAwarePolicy{Inner: io, Capacity: bb},
		BBAwarePolicy{Inner: node, Capacity: bb},
		BBAwarePolicy{Inner: adaptive, Capacity: bb},
		TetrisPolicy{Inner: io, TotalNodes: n, ThroughputLimit: 2 * limit},
		TetrisPolicy{Inner: node, TotalNodes: n},
		TetrisPolicy{Inner: foreignPolicy{node}, TotalNodes: n},
		TBFAwarePolicy{Inner: adaptive},
		TBFAwarePolicy{Inner: node},
		TBFAwarePolicy{Inner: foreignPolicy{node}},
		foreignPolicy{node},
	}
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, PolicyParams{Nodes: n, Limit: limit, BBCapacity: bb})
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, p)
	}
	for _, p := range policies {
		if got, want := ThroughputLimit(p), typeSwitch(p); got != want {
			t.Errorf("%s (%T): ThroughputLimit = %g, want %g", p.Name(), p, got, want)
		}
	}
}
