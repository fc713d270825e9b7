package sched

import (
	"fmt"
	"math"
	"testing"

	"wasched/internal/des"
)

// foreignPolicy is a policy from outside the package's reservation model.
type foreignPolicy struct{ NodePolicy }

func (foreignPolicy) Name() string { return "foreign" }

// Both construction paths validate through modelOf, so a malformed policy
// panics from newSession exactly when it panics from NewRound.
func TestMalformedPoliciesPanicOnBothPaths(t *testing.T) {
	node := NodePolicy{TotalNodes: 4}
	io := IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 10}
	for name, p := range map[string]Policy{
		"node/0 nodes":                NodePolicy{},
		"io-aware/0 nodes":            IOAwarePolicy{ThroughputLimit: 10},
		"io-aware/0 limit":            IOAwarePolicy{TotalNodes: 4},
		"adaptive/0 nodes":            AdaptivePolicy{ThroughputLimit: 10},
		"adaptive/0 limit":            AdaptivePolicy{TotalNodes: 4},
		"adaptive/qos 1.5":            AdaptivePolicy{TotalNodes: 4, ThroughputLimit: 10, QoSFraction: 1.5},
		"plan/0 nodes":                PlanPolicy{BBCapacity: 1},
		"plan/negative capacity":      PlanPolicy{TotalNodes: 4, BBCapacity: -1},
		"plan/NaN capacity":           PlanPolicy{TotalNodes: 4, BBCapacity: math.NaN()},
		"plan/negative limit":         PlanPolicy{TotalNodes: 4, ThroughputLimit: -1},
		"plan/negative horizon":       PlanPolicy{TotalNodes: 4, Horizon: -1},
		"tbf/0 nodes":                 TBFPolicy{},
		"tetris/no inner":             TetrisPolicy{TotalNodes: 4},
		"tetris/0 nodes":              TetrisPolicy{Inner: node},
		"tetris/malformed inner":      TetrisPolicy{Inner: NodePolicy{}, TotalNodes: 4},
		"tbf+/no inner":               TBFAwarePolicy{},
		"tbf+/malformed inner":        TBFAwarePolicy{Inner: IOAwarePolicy{TotalNodes: 4}},
		"bb+/no inner":                BBAwarePolicy{Capacity: 1},
		"bb+/negative capacity":       BBAwarePolicy{Inner: io, Capacity: -1},
		"bb+/malformed inner":         BBAwarePolicy{Inner: AdaptivePolicy{TotalNodes: 4}, Capacity: 1},
		"bb+/foreign inner":           BBAwarePolicy{Inner: foreignPolicy{node}, Capacity: 1},
		"bb+/tetris foreign inner":    BBAwarePolicy{Inner: TetrisPolicy{Inner: foreignPolicy{node}, TotalNodes: 4}, Capacity: 1},
		"tbf+/tetris/malformed inner": TBFAwarePolicy{Inner: TetrisPolicy{Inner: PlanPolicy{TotalNodes: 4, Horizon: -1}, TotalNodes: 4}},
	} {
		for path, build := range map[string]func(){
			"NewRound":   func() { p.NewRound(RoundInput{}) },
			"newSession": func() { newSession(p) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", name, path)
					}
				}()
				build()
			}()
		}
	}
}

// Wrappers that only reorder or rename keep working around a policy from
// outside the package: NewRound delegates to it, and there is no session.
func TestPassThroughWrappersAroundForeignPolicy(t *testing.T) {
	foreign := foreignPolicy{NodePolicy{TotalNodes: 4}}
	for _, p := range []Policy{
		TetrisPolicy{Inner: foreign, TotalNodes: 4},
		TBFAwarePolicy{Inner: foreign},
	} {
		if r := p.NewRound(RoundInput{}); r == nil {
			t.Errorf("%s: NewRound returned nil", p.Name())
		}
		if s := newSession(p); s != nil {
			t.Errorf("%s: newSession = %T, want nil", p.Name(), s)
		}
	}
}

func TestReadsMeasured(t *testing.T) {
	const limit = 10.0
	node := NodePolicy{TotalNodes: 4}
	io := IOAwarePolicy{TotalNodes: 4, ThroughputLimit: limit}
	cases := []struct {
		name string
		p    Policy
		want bool
	}{
		{"node", node, false},
		{"tbf", TBFPolicy{TotalNodes: 4, Straggler: true}, false},
		{"plan without a limit", PlanPolicy{TotalNodes: 4, BBCapacity: 1}, false},
		{"io-aware", io, true},
		{"io-aware, guard off", IOAwarePolicy{TotalNodes: 4, ThroughputLimit: limit, IgnoreMeasured: true}, false},
		{"adaptive", AdaptivePolicy{TotalNodes: 4, ThroughputLimit: limit, TwoGroup: true}, true},
		{"plan with a limit", PlanPolicy{TotalNodes: 4, BBCapacity: 1, ThroughputLimit: limit}, true},
		{"bb+ io-aware", BBAwarePolicy{Inner: io, Capacity: 1}, true},
		{"bb+ node", BBAwarePolicy{Inner: node, Capacity: 1}, false},
		{"tetris+ io-aware", TetrisPolicy{Inner: io, TotalNodes: 4, ThroughputLimit: limit}, true},
		{"tetris+ node", TetrisPolicy{Inner: node, TotalNodes: 4}, false},
		{"tbf+ io-aware", TBFAwarePolicy{Inner: io}, true},
		{"tbf+ node", TBFAwarePolicy{Inner: node}, false},
		{"foreign", foreignPolicy{node}, true},
		{"tetris+ foreign", TetrisPolicy{Inner: foreignPolicy{node}, TotalNodes: 4}, true},
		{"tbf+ foreign", TBFAwarePolicy{Inner: foreignPolicy{node}}, true},
	}
	for _, c := range cases {
		if got := NewDriver(c.p, Options{}).ReadsMeasured(); got != c.want {
			t.Errorf("%s: Driver.ReadsMeasured = %v, want %v", c.name, got, c.want)
		}
		// A measurement far above what the running jobs explain holds
		// every start under a guarded model and moves nothing otherwise.
		// A foreign policy may read it or not.
		if _, ok := modelOf(c.p); !ok {
			continue
		}
		quiet, loud := measuredRound(c.p, 0), measuredRound(c.p, 1e9)
		if moved := quiet != loud; moved != c.want {
			t.Errorf("%s: decisions with R_now 0 %q, with R_now 1e9 %q; ReadsMeasured %v", c.name, quiet, loud, c.want)
		}
	}
}

// measuredRound runs one round of p over a fixed queue under the given
// measured throughput and returns its decisions as text.
func measuredRound(p Policy, measured float64) string {
	run := job("run", 1, 100*des.Second)
	run.Rate = 2
	waiting := []*Job{job("a", 1, 100*des.Second), job("b", 1, 100*des.Second), job("c", 1, 100*des.Second)}
	for _, j := range waiting {
		j.Rate = 3
	}
	ds, _ := RunRound(p, RoundInput{Running: []*Job{run}, Waiting: waiting, MeasuredThroughput: measured}, Options{})
	out := ""
	for _, d := range ds {
		out += fmt.Sprintf("%s:%v/%v/%d ", d.Job.ID, d.StartNow, d.Reserved, d.PlannedStart)
	}
	return out
}
