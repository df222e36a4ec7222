package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunJSONAndCSV(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "w.json")
	if err := run([]string{"-n", "5", "-seed", "3", "-o", jsonPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"usage\"") {
		t.Errorf("JSON output missing usage: %.80s", data)
	}
	csvPath := filepath.Join(dir, "w.csv")
	if err := run([]string{"-n", "5", "-format", "csv", "-o", csvPath}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "job_id,class") {
		t.Errorf("CSV header wrong: %.60s", data)
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	if err := run([]string{"-format", "xml"}); err == nil {
		t.Error("bad format accepted")
	}
	// The flags after a non-flag word would be dropped silently.
	out := filepath.Join(t.TempDir(), "w.json")
	if err := run([]string{"-n", "5", "-o", out, "stray", "-seed", "3"}); err == nil {
		t.Error("stray positional argument accepted")
	}
}
