package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/resource"
)

// FuzzReadTrace feeds arbitrary bytes to the three trace readers. None may
// panic; any input ReadCSV or ReadJSON accepts must survive write → read
// unchanged, and every job ReadGoogleTaskUsage builds must validate. The
// seeds are one well-formed file per format plus the row-level defects real
// traces carry (AGOCS, PAPERS.md): short rows, non-numeric and non-finite
// fields, negative values, end-before-start and overflowing timestamps.
func FuzzReadTrace(f *testing.F) {
	jobs, err := GenerateShortJobs(Config{Seed: 1, NumJobs: 3, ArrivalSpan: 10, VMCapacity: resource.New(4, 16, 180)})
	if err != nil {
		f.Fatal(err)
	}
	for format, write := range []func(io.Writer, []*job.Job) error{
		WriteCSV,
		WriteJSON,
		func(w io.Writer, jobs []*job.Job) error { return WriteGoogleTaskUsage(w, jobs, resource.Vector{}) },
	} {
		var buf bytes.Buffer
		if err := write(&buf, jobs); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(format), buf.Bytes())
		f.Add(uint8(format), buf.Bytes()[:buf.Len()/2])
	}
	const header = "job_id,class,arrival,duration,slo_factor,req_cpu,req_mem,req_sto,slot,use_cpu,use_mem,use_sto\n"
	for _, row := range []string{
		"1,balanced,0,1,2,1,1,1,0,NaN,1,1\n",
		"1,balanced,0,1,2,1,1,1,0,+Inf,1,1\n",
		"1,balanced,1e300,1,2,1,1,1,0,1,1,1\n",
		"1,balanced,0,1,2,1,1,1,0,-1,1,1\n",
		"1,balanced,0,1\n",
	} {
		f.Add(uint8(0), []byte(header+row))
	}
	f.Add(uint8(1), []byte(`[{"id":1,"class":"balanced","duration":1,"slo_factor":2,"usage":[]}]`))
	f.Add(uint8(1), []byte(`[{"id":1e99,"class":"balanced","duration":1,"slo_factor":2,"usage":[[1,1,1]]}]`))
	for _, row := range []string{
		"0,300000000,1,0,m,NaN,0.1,,,,,,0.1\n",
		"0,300000000,1,0,m,Inf,0.1,,,,,,0.1\n",
		"300000000,0,1,0,m,0.1,0.1,,,,,,0.1\n",
		"-9223372036854775808,9223372036854775807,1,0,m,0.1,0.1,,,,,,0.1\n",
		"0,300000000,1,0,m,0.1\n",
	} {
		f.Add(uint8(2), []byte(row))
	}

	f.Fuzz(func(t *testing.T, format uint8, data []byte) {
		switch format % 3 {
		case 0:
			roundTrip(t, data, ReadCSV, WriteCSV)
		case 1:
			roundTrip(t, data, ReadJSON, WriteJSON)
		case 2:
			jobs, err := ReadGoogleTaskUsage(bytes.NewReader(data), GoogleReadOptions{})
			if err != nil {
				return
			}
			for _, j := range jobs {
				if err := j.Validate(); err != nil {
					t.Fatalf("ReadGoogleTaskUsage returned an invalid job: %v", err)
				}
			}
		}
	})
}

func roundTrip(t *testing.T, data []byte, read func(io.Reader) ([]*job.Job, error), write func(io.Writer, []*job.Job) error) {
	jobs, err := read(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := write(&buf, jobs); err != nil {
		t.Fatalf("accepted input does not write back: %v", err)
	}
	written := buf.String()
	again, err := read(&buf)
	if err != nil {
		t.Fatalf("written form of accepted input is rejected: %v\n%s", err, written)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Fatalf("reading back the written form of accepted input changed the jobs:\n%s", written)
	}
}
