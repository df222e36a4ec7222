package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// relSpread is the distance between a reading's quartiles as a share of its
// median; single measurements have none.
func relSpread(r reading) float64 {
	if r.N < 2 || r.Value == 0 {
		return 0
	}
	return (r.Q3 - r.Q1) / r.Value
}

// verdict applies one metric's bound to a pair of readings. worse is the
// relative worsening of b's median against a's (negative when b is better).
// A spread wider than the bound on either side makes the row unresolved
// rather than ok/regressed/improved.
func verdict(d metricDef, a, b reading) (status string, worse, spread float64) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if d.Better == "higher" {
		worse = -worse
	}
	spread = relSpread(a)
	if s := relSpread(b); s > spread {
		spread = s
	}
	switch {
	case spread > d.Bound:
		status = "unresolved"
	case worse > d.Bound:
		status = "regressed"
	case worse < -d.Bound:
		status = "improved"
	default:
		status = "ok"
	}
	return status, worse, spread
}

func quartileText(r reading) string {
	if r.N < 2 {
		return "single value"
	}
	return fmt.Sprintf("q1 %.5g q3 %.5g n %d", r.Q1, r.Q3, r.N)
}

// compareFiles prints one row per (metric, workload) for the bounded
// end-to-end metrics, then every exact value that differs. It fails on any
// regressed row, any fail_ratio increase, any lost digest and any changed
// exact value.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (seed %d, nproc %d)\nB: %s (seed %d, nproc %d)\n", pathA, a.Env.Seed, a.Env.NProc, pathB, b.Env.Seed, b.Env.NProc)
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	bad := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-20s missing from B\n", wa.Name)
			bad++
			continue
		}
		for _, d := range endToEnd[:gatedEndToEnd] {
			ra, rb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			status, worse, spread := verdict(d, ra, rb)
			if status == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "%-20s %-18s %-10s A %.6g %s (%s)  B %.6g %s (%s)  worse by %+.2f%%, spread %.2f%%, bound %.0f%%\n",
				wa.Name, d.Name, status, ra.Value, ra.Unit, quartileText(ra), rb.Value, rb.Unit, quartileText(rb),
				100*worse, 100*spread, 100*d.Bound)
		}
		if fa, fb := wa.EndToEnd["fail_ratio"].Value, wb.EndToEnd["fail_ratio"].Value; fb > fa {
			fmt.Fprintf(w, "%-20s %-18s %-10s A %g  B %g\n", wa.Name, "fail_ratio", "regressed", fa, fb)
			bad++
		}
		if da, db := wa.EndToEnd["sim_digest_ok"].Value, wb.EndToEnd["sim_digest_ok"].Value; db < da {
			fmt.Fprintf(w, "%-20s %-18s %-10s A %g  B %g\n", wa.Name, "sim_digest_ok", "regressed", da, db)
			bad++
		}
		// Simulated statistics compare exactly: with equal seeds any
		// difference is a model change, not noise.
		if a.Env.Seed == b.Env.Seed {
			if wa.Digest != wb.Digest {
				fmt.Fprintf(w, "%-20s %-18s %-10s A %.12s  B %.12s\n", wa.Name, "digest", "changed", wa.Digest, wb.Digest)
				bad++
			}
			for _, name := range exactPerLayer {
				ra, okA := wa.PerLayer[name]
				rb, okB := wb.PerLayer[name]
				if okA != okB || ra.Value != rb.Value {
					fmt.Fprintf(w, "%-20s %-18s %-10s A %v  B %v\n", wa.Name, name, "changed", ra.Value, rb.Value)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or changed", bad)
	}
	return nil
}
