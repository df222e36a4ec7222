package sim

import (
	"bytes"
	"testing"
)

func TestWriteTimelineCSV(t *testing.T) {
	points := []TimelinePoint{
		{Slot: 0, ShortUtil: 0.5, ClusterUtil: 0.4, UnusedCPU: 12.5, OppInUseCPU: 3, RunningShort: 4, Queued: 1},
		{Slot: 1, ShortUtil: 0.75, ClusterUtil: 0.45, UnusedCPU: 11, OppInUseCPU: 4.5, RunningShort: 5, Queued: 0},
	}
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	want := "slot,short_util,cluster_util,unused_cpu,opp_in_use_cpu,running,queued\n" +
		"0,0.5,0.4,12.5,3,4,1\n" +
		"1,0.75,0.45,11,4.5,5,0\n"
	if got := buf.String(); got != want {
		t.Errorf("timeline CSV:\n%s\nwant:\n%s", got, want)
	}
}
