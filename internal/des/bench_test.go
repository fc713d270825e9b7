package des

import "testing"

// BenchmarkEngineThroughput measures raw event dispatch (schedule + fire).
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%1000)*Millisecond, "b", func() {})
		if e.Pending() > 1024 {
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}
	e.RunUntilIdle(0)
}

// BenchmarkEngineCancel measures schedule+cancel cycles (the pfs rate
// solver's dominant event pattern).
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.After(Hour, "b", func() {})
		e.Cancel(ev)
	}
}

// BenchmarkMonitoredCluster is the event mix of a prototype run, one op per
// fired event: 15 phase-jittered 1 s samplers (LDMS), a 1 s aggregator and
// noise tick that moves every stream boundary in place (as the pfs solver
// does), a 5 s scheduling round, and 60 streams whose boundary events
// re-arm themselves when they fire.
func BenchmarkMonitoredCluster(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1, "bench/cluster")
	samples := 0
	for i := 0; i < 15; i++ {
		e.After(rng.Jitter(Second), "start", func() {
			e.Ticker(Second, "sample", func(Time) { samples++ })
		})
	}
	streams := make([]Event, 60)
	for i := range streams {
		var boundary func()
		boundary = func() {
			streams[i] = e.After(Duration(1+rng.IntN(30))*Second, "stream", boundary)
		}
		streams[i] = e.After(Duration(1+rng.IntN(30))*Second, "stream", boundary)
	}
	e.Ticker(Second, "noise", func(now Time) {
		for _, ev := range streams {
			e.Reschedule(ev, now.Add(Duration(1+rng.IntN(30000))*Millisecond))
		}
	})
	rounds := 0
	e.Ticker(5*Second, "round", func(Time) { rounds++ })
	e.Run(Time(10 * Second)) // every sampler started, pool and queue warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if samples == 0 || rounds == 0 {
		b.Fatal("tickers never fired")
	}
}

// BenchmarkRNG measures the derived-stream draw rate.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.LogNormal(0, 0.16)
	}
}
