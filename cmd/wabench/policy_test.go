package main

import (
	"testing"

	"wasched/internal/experiments"
	"wasched/internal/sched"
	"wasched/internal/workload"
)

func TestWrapperForwardsOptionalInterfacesOnlyWhenInnerHasThem(t *testing.T) {
	node := sched.NodePolicy{TotalNodes: 4}
	adaptive := sched.AdaptivePolicy{TotalNodes: 4, ThroughputLimit: 10 * gib, TwoGroup: true}
	tetris := sched.TetrisPolicy{Inner: node, TotalNodes: 4}
	for _, c := range []struct {
		name            string
		policy          sched.Policy
		orderer, diager bool
	}{
		{"node", node, false, false},
		{"adaptive", adaptive, false, true},
		{"tetris", tetris, true, false},
	} {
		wrapped := wrapPolicy(c.policy, &policyStats{})
		if _, ok := wrapped.(sched.WindowOrderer); ok != c.orderer {
			t.Errorf("%s: wrapper is a WindowOrderer: %v, want %v", c.name, ok, c.orderer)
		}
		if _, ok := wrapped.NewRound(sched.RoundInput{}).(sched.Diagnoser); ok != c.diager {
			t.Errorf("%s: wrapped round is a Diagnoser: %v, want %v", c.name, ok, c.diager)
		}
		if wrapped.Name() != c.policy.Name() {
			t.Errorf("%s: wrapper renamed the policy to %q", c.name, wrapped.Name())
		}
	}
}

// Tracing must never change a simulated output: a prototype run with the
// policy wrapped schedules byte-identically to one without.
func TestWrappedPrototypeRunKeepsDigest(t *testing.T) {
	policy := sched.AdaptivePolicy{TotalNodes: experiments.Nodes, ThroughputLimit: experiments.Limit20, TwoGroup: true}
	in := &protoInput{specs: workload.Workload1()[:90], opts: experiments.DefaultOptions(policy, 3), limit: experiments.Limit20}
	plain, err := doRep(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := doRep(in, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traced.out.digest != plain.out.digest {
		t.Fatal("wrapping the policy changed the schedule digest")
	}
	if n := traced.out.counters["sched.earliest_start_calls"]; n == 0 {
		t.Fatal("the wrapper saw no EarliestStart calls")
	}
	if traced.out.spans["sched.policy"] <= 0 {
		t.Fatal("the wrapper timed no policy work")
	}
}
