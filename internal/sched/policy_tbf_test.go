package sched

import (
	"testing"

	"wasched/internal/des"
)

// TBFPolicy's reservation model must be exactly NodePolicy's: the token
// layer owns bandwidth, so the scheduler sees nodes only.
func TestTBFPolicyMatchesNodePolicy(t *testing.T) {
	running := []*Job{
		{ID: "r1", Nodes: 4, Limit: des.Hour, StartedAt: 0, Rate: 5e9},
		{ID: "r2", Nodes: 3, Limit: 2 * des.Hour, StartedAt: des.TimeFromSeconds(600), Rate: 9e9},
	}
	waiting := []*Job{
		{ID: "w1", Nodes: 8, Limit: des.Hour, Rate: 20e9},
		{ID: "w2", Nodes: 2, Limit: 30 * des.Minute, Rate: 1e9},
		{ID: "w3", Nodes: 16, Limit: des.Hour},
	}
	in := RoundInput{Now: des.TimeFromSeconds(1200), Running: running, Waiting: waiting, MeasuredThroughput: 12e9}

	tbf := TBFPolicy{TotalNodes: 10}.NewRound(in)
	node := NodePolicy{TotalNodes: 10}.NewRound(in)
	for _, j := range waiting {
		tt, tok := tbf.EarliestStart(j, in.Now)
		nt, nok := node.EarliestStart(j, in.Now)
		if tt != nt || tok != nok {
			t.Fatalf("job %s: tbf EarliestStart (%v,%v) != node (%v,%v)", j.ID, tt, tok, nt, nok)
		}
		if tok {
			tbf.Reserve(j, tt)
			node.Reserve(j, nt)
		}
	}
}

func TestTBFPolicyNames(t *testing.T) {
	if got := (TBFPolicy{TotalNodes: 4}).Name(); got != "tbf" {
		t.Fatalf("Name() = %q, want tbf", got)
	}
	if got := (TBFPolicy{TotalNodes: 4, Straggler: true}).Name(); got != "tbf-straggler" {
		t.Fatalf("straggler Name() = %q, want tbf-straggler", got)
	}
	if got := (TBFAwarePolicy{Inner: IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 1}}).Name(); got != "tbf+io-aware" {
		t.Fatalf("wrapper Name() = %q, want tbf+io-aware", got)
	}
}

// The tbf+ wrapper must change no decision relative to its inner policy.
func TestTBFAwareWrapperIsTransparent(t *testing.T) {
	inner := IOAwarePolicy{TotalNodes: 10, ThroughputLimit: 20e9}
	wrapped := TBFAwarePolicy{Inner: inner}
	running := []*Job{{ID: "r1", Nodes: 4, Limit: des.Hour, Rate: 15e9}}
	waiting := []*Job{
		{ID: "w1", Nodes: 2, Limit: des.Hour, Rate: 10e9},
		{ID: "w2", Nodes: 2, Limit: des.Hour, Rate: 1e9},
	}
	in := RoundInput{Now: 0, Running: running, Waiting: waiting, MeasuredThroughput: 15e9}
	wr := wrapped.NewRound(in)
	ir := inner.NewRound(in)
	for _, j := range waiting {
		wt, wok := wr.EarliestStart(j, in.Now)
		it, iok := ir.EarliestStart(j, in.Now)
		if wt != it || wok != iok {
			t.Fatalf("job %s: wrapper EarliestStart (%v,%v) != inner (%v,%v)", j.ID, wt, wok, it, iok)
		}
	}
}

// The incremental sessions for the tbf family must exist (the replayer
// depends on them) and agree with the from-scratch rounds.
func TestTBFSessionMatchesNewRound(t *testing.T) {
	for _, p := range []Policy{
		TBFPolicy{TotalNodes: 10},
		TBFPolicy{TotalNodes: 10, Straggler: true},
		TBFAwarePolicy{Inner: NodePolicy{TotalNodes: 10}},
	} {
		s := newSession(p)
		if s == nil {
			t.Fatalf("newSession(%s) = nil", p.Name())
		}
		waiting := []*Job{{ID: "w1", Nodes: 6, Limit: des.Hour}}
		in := RoundInput{Now: 0, Waiting: waiting}
		j := &Job{ID: "r1", Nodes: 8, Limit: des.Hour, StartedAt: 0}
		s.JobStarted(j)
		in.Running = []*Job{j}
		sr := s.BeginRound(in)
		fr := p.NewRound(in)
		st, sok := sr.EarliestStart(waiting[0], in.Now)
		ft, fok := fr.EarliestStart(waiting[0], in.Now)
		if st != ft || sok != fok {
			t.Fatalf("%s: session EarliestStart (%v,%v) != fresh (%v,%v)", p.Name(), st, sok, ft, fok)
		}
	}
}
