package prometheus_test

// BenchmarkDelegateOverhead isolates the per-operation cost of the
// delegation hot path through the public wrapper API — the number behind
// the paper's overhead argument (§5): delegation must stay cheap enough
// that serialization sets beat lock-based pipelines. Run with -benchmem;
// the unchecked, untraced paths are required to report 0 allocs/op (see
// alloc_test.go for the hard regression gate).

import (
	"testing"

	prometheus "repro"
)

func BenchmarkDelegateOverhead(b *testing.B) {
	b.Run("writable", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	// writable-nobatch is kept for the BENCH_PR1.json gate; the batch
	// option it sets is deprecated and has no effect, so it measures the
	// same path as writable.
	b.Run("writable-nobatch", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4), prometheus.WithDelegateBatch(1))
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	b.Run("writable-spread-4", func(b *testing.B) {
		// Round-robins four wrappers, so consecutive delegations hit
		// different delegates' lanes — no two in a row share a ring or a
		// consumer.
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		ws := make([]*prometheus.Writable[int], 4)
		for i := range ws {
			ws[i] = prometheus.NewWritable(rt, 0)
		}
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws[i%4].Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	b.Run("reducible", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		r := prometheus.NewReducible(rt,
			func() int { return 0 },
			func(dst, src *int) { *dst += *src })
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Delegate(1, func(v *int) { *v++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	b.Run("readonly", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		r := prometheus.NewReadOnly(rt, 42)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Delegate(1, func(c *prometheus.Ctx, p *int) { _ = *p })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	b.Run("sequential-inline", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.Sequential())
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
}
