package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
)

// BenchmarkExecuteVM times the execute phase's per-VM body on one busy VM:
// 1, 6 and 32 running short jobs, every other one opportunistic, over a
// pool the opportunistic wants oversubscribe on every kind, so the scale
// branch runs. No job finishes (an infinite duration), so every iteration
// is the steady-state job-slot cost; ns/jobslot divides by the job count.
func BenchmarkExecuteVM(b *testing.B) {
	usage := make([]resource.Vector, 9)
	for k := range usage {
		usage[k] = resource.Vector{0.2 + 0.05*float64(k), 0.5 + 0.1*float64(k%4), 1 + float64(k%3)}
	}
	for _, n := range []int{1, 6, 32} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			hot := make([]hotShort, n)
			for i := range hot {
				h := &hot[i]
				*h = hotShort{
					alloc:    resource.Vector{0.4, 0.8, 2.5},
					duration: math.Inf(1),
					usage:    usage,
					uidx:     int32(i % len(usage)),
					opp:      i%2 == 0,
				}
				h.d = usage[h.uidx]
			}
			rs := &runState{
				vms: []vmState{{
					capacity: resource.Vector{8, 32, 200},
					reserved: resource.Vector{2, 8, 50},
					hot:      hot,
					running:  make([]*job.Runtime, n),
				}},
				unused:      []resource.Vector{{0.1, 0.3, 1}},
				residentUse: []resource.Vector{{1.5, 6, 40}},
				res:         &Result{},
			}
			var acc slotAccum
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs.executeVM(i, 0, &acc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/jobslot")
		})
	}
}
