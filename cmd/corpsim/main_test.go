package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"CORP", "corp", "RCCR", "cloudscale", "DRA"} {
		if _, err := parseScheme(name); err != nil {
			t.Errorf("parseScheme(%q): %v", name, err)
		}
	}
	if _, err := parseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestParseProfile(t *testing.T) {
	for _, name := range []string{"cluster", "ec2", "EC2"} {
		if _, err := parseProfile(name); err != nil {
			t.Errorf("parseProfile(%q): %v", name, err)
		}
	}
	if _, err := parseProfile("gcp"); err == nil {
		t.Error("bogus profile accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.txt")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	timeline := filepath.Join(dir, "tl.csv")
	err = run([]string{
		"-scheme", "RCCR", "-jobs", "20", "-pms", "4", "-vms", "16",
		"-seed", "2", "-timeline", timeline,
	}, out)
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheme", "RCCR", "utilization", "SLO", "overhead"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	tl, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(tl), "slot,short_util") {
		t.Errorf("timeline header wrong: %.60s", tl)
	}
}

func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.json")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-scheme", "DRA", "-jobs", "15", "-pms", "4", "-vms", "16", "-json"}, out)
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "\"Scheme\": \"DRA\"") {
		t.Errorf("JSON output missing scheme: %.120s", text)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scheme", "nope"}, os.Stdout); err == nil {
		t.Error("bad scheme accepted")
	}
	if err := run([]string{"-profile", "nope"}, os.Stdout); err == nil {
		t.Error("bad profile accepted")
	}
	// There is one simulator core; the selector flag is gone.
	if err := run([]string{"-core", "slot"}, os.Stdout); err == nil {
		t.Error("-core accepted")
	}
	// A one-run process has nothing to share a workload snapshot with.
	if err := run([]string{"-workload-cache", "off"}, os.Stdout); err == nil {
		t.Error("-workload-cache accepted")
	}
	// There is one CORP predictor; the two-tier forecaster's flag is gone.
	if err := run([]string{"-forecast-tier", "auto"}, os.Stdout); err == nil {
		t.Error("-forecast-tier accepted")
	}
	// A negative count is an error naming the field, not the profile's
	// default (-pms -4 once ran the 50-PM cluster).
	for _, tc := range []struct{ flag, field string }{{"-pms", "NumPMs"}, {"-vms", "NumVMs"}} {
		err := run([]string{"-scheme", "RCCR", "-jobs", "10", tc.flag, "-4"}, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), tc.field+" = -4") {
			t.Errorf("%s -4: error %v, want one naming %s", tc.flag, err, tc.field)
		}
	}
	// flag stops parsing at the first non-flag word: without the check the
	// flags after it would be dropped silently.
	if err := run([]string{"-jobs", "10", "-pms", "2", "-vms", "4", "quick", "-scheme", "RCCR"}, os.Stdout); err == nil {
		t.Error("stray positional argument accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.txt")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-scheme", "RCCR", "-jobs", "40", "-pms", "4", "-vms", "16",
		"-seed", "3", "-faults", "0.01", "-mttr", "8", "-surge", "0.02", "-det",
	}, out)
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"faults", "VM crashes", "recovery", "evictions", "retries"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("fault run output missing %q:\n%s", want, text)
		}
	}
	// Fault-free runs stay clean: no fault lines in the report.
	outPath2 := filepath.Join(dir, "clean.txt")
	out2, err := os.Create(outPath2)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-scheme", "RCCR", "-jobs", "40", "-pms", "4", "-vms", "16", "-seed", "3"}, out2)
	out2.Close()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(outPath2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(clean), "VM crashes") {
		t.Errorf("fault-free run printed fault lines:\n%s", clean)
	}
}
