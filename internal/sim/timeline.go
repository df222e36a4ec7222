package sim

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/resource"
)

// TimelinePoint is one slot's snapshot of the run, recorded when
// Config.RecordTimeline is set. It backs "utilization over time" analyses
// and the corpsim -timeline output.
type TimelinePoint struct {
	Slot int
	// ShortUtil is the short-job overall utilization this slot (Eq. 2
	// over the submitted jobs); zero when no short job is running.
	ShortUtil float64
	// ClusterUtil is the whole-cluster overall utilization this slot.
	ClusterUtil float64
	// UnusedCPU is the total actual unused CPU across VMs (cores).
	UnusedCPU float64
	// OppInUseCPU is the total opportunistically allocated CPU (cores).
	OppInUseCPU float64
	// RunningShort and Queued count short jobs in flight and waiting.
	RunningShort int
	Queued       int
}

// WriteTimelineCSV renders a timeline as CSV with a header row.
func WriteTimelineCSV(w io.Writer, points []TimelinePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"slot", "short_util", "cluster_util", "unused_cpu", "opp_in_use_cpu", "running", "queued",
	}); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, p := range points {
		if err := cw.Write([]string{
			strconv.Itoa(p.Slot), f(p.ShortUtil), f(p.ClusterUtil),
			f(p.UnusedCPU), f(p.OppInUseCPU),
			strconv.Itoa(p.RunningShort), strconv.Itoa(p.Queued),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// snapshotTimeline builds one slot's point from the loop's ledgers.
func snapshotTimeline(t int, weights resource.Weights,
	shortAlloc, shortDemand, clusterAlloc, clusterDemand resource.Vector,
	unused []resource.Vector, vms []vmState, queued int) TimelinePoint {
	p := TimelinePoint{Slot: t, Queued: queued}
	if den := shortAlloc.Weighted(weights); den > 0 {
		p.ShortUtil = shortDemand.Weighted(weights) / den
	}
	if den := clusterAlloc.Weighted(weights); den > 0 {
		p.ClusterUtil = clusterDemand.Weighted(weights) / den
	}
	for _, u := range unused {
		p.UnusedCPU += u.At(resource.CPU)
	}
	for v := range vms {
		p.OppInUseCPU += vms[v].Opp.At(resource.CPU)
		p.RunningShort += len(vms[v].running)
	}
	return p
}
