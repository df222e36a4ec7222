package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// -list prints exactly the registry's IDs, one per line in its order.
func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, s := range experiments.Registry() {
		want.WriteString(s.ID + "\n")
	}
	if buf.String() != want.String() {
		t.Errorf("-list printed:\n%swant the registry order:\n%s", buf.String(), want.String())
	}
}

func TestRunTableII(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "tableII"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P_th") {
		t.Errorf("tableII output missing P_th: %.120s", buf.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "fig99"}, &buf); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "tableII", "-md"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# CORP reproduction report") {
		t.Errorf("markdown report header missing: %.120s", buf.String())
	}
}

// corpbench regenerates figures and nothing else: the snapshot mode's flags
// and the workload-cache switch are gone, not ignored (-list would end an
// accepted run at once).
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-json"},
		{"-bench-diff", "a,b"},
		{"-bench-filter", "x"},
		{"-workload-cache", "off"},
		{"-forecast-tier", "auto"}, // there is one CORP predictor
		{"-list", "stray"},         // the flags after a non-flag word would be dropped silently
	} {
		var buf bytes.Buffer
		if err := run(append(args, "-list"), &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunCPUProfileWrites(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "cpu.out")
	var buf bytes.Buffer
	if err := run([]string{"-fig", "tableII", "-cpuprofile", profPath}, &buf); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(profPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("cpu profile is empty")
	}
}

func TestRunMemProfileWrites(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "mem.out")
	var buf bytes.Buffer
	if err := run([]string{"-fig", "tableII", "-memprofile", profPath}, &buf); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(profPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("heap profile is empty")
	}
}
