package obs

import (
	"fmt"
	"testing"
)

var benchEvent = Event{Type: ChunkDone, Alg: "fixed-rumr", Worker: 3, Size: 12.5,
	SendStart: 1, SendEnd: 2, CompStart: 3, CompEnd: 4, OutputEnd: 5}

// BenchmarkRingEmitPtr measures the ring's per-event cost in isolation
// once it is at capacity: one mutex hold plus one event copy into a
// page it already holds — tens of nanoseconds, zero allocations, and
// independent of capacity.
func BenchmarkRingEmitPtr(b *testing.B) {
	for _, n := range []int{256, 8192} {
		b.Run(fmt.Sprintf("cap=%d", n), func(b *testing.B) {
			r := NewRing(n)
			ev := benchEvent
			for i := 0; i < n; i++ {
				r.EmitPtr(&ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Seq = int64(i)
				r.EmitPtr(&ev)
			}
		})
	}
}

// BenchmarkRingFill measures what a job pays for its event storage:
// each iteration fills a fresh 8192-event ring. heap takes its 155
// pages from the allocator (allocated and zeroed once each, never
// copied); pooled takes them from a pool the previous iteration's
// Release refilled, which is the daemon's steady state. ns/op ÷ 8192
// is the per-event cost while growing.
func BenchmarkRingFill(b *testing.B) {
	const n = 8192
	pool := NewPagePool((n + pageEvents - 1) / pageEvents * pageBytes)
	for _, bc := range []struct {
		name string
		ring func() *Ring
	}{
		{"heap", func() *Ring { return NewRing(n) }},
		{"pooled", func() *Ring { return pool.NewRing(n) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ev := benchEvent
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := bc.ring()
				for s := 0; s < n; s++ {
					ev.Seq = int64(s)
					r.EmitPtr(&ev)
				}
				r.Release()
			}
		})
	}
}
