package daemon

import (
	"fmt"
	"testing"

	"apstdv/internal/workload"
)

// BenchmarkServedJob measures what one job costs the daemon in process
// — admission, one run in the execution slot, retirement under the
// retention bounds, no transport — for the two job shapes of the
// serve_open_mix workload: a planned 32-chunk UMR job and a 4000-chunk
// job whose 16 004 events fill and wrap the ring. ns/op is the slot's
// service time; B/op and allocs/op are what DESIGN.md's "Serving: what
// a job costs to run and to keep" quotes.
func BenchmarkServedJob(b *testing.B) {
	for _, k := range []struct {
		name, alg string
		load      int
	}{{"umr-32-chunks", "umr", 20000}, {"simple-4000-chunks", "simple-250", 4000}} {
		b.Run(k.name, func(b *testing.B) {
			d, err := New(Config{
				Mode: ModeSim, Platform: workload.DAS2(16), Seed: 1,
				MaxConcurrentJobs: 1, QueueDepth: 64, RetainJobs: 256,
			})
			if err != nil {
				b.Fatal(err)
			}
			args := SubmitArgs{
				TaskXML: fmt.Sprintf(`<task executable="bench" input="virtual">
 <divisibility input="virtual" method="callback" callback="cb" load="%d" algorithm="%s"/>
</task>`, k.load, k.alg),
				SimApp: &SimApp{UnitCost: 0.05, BytesPerUnit: 1000},
			}
			one := func() {
				var reply SubmitReply
				if err := d.Submit(args, &reply); err != nil {
					b.Fatal(err)
				}
				d.Wait()
			}
			for i := 0; i < 300; i++ {
				one() // past RetainJobs: eviction and stripping are in steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				one()
			}
		})
	}
}
