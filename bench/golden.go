package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed golden.json pins. Any other seed is checked for
// determinism only: cold digest == every warm digest, job conservation,
// no failed farm job.
const goldenSeed = 1

// goldenPath is where -update-golden, run from the repo root, rewrites the
// file embedded below.
var goldenPath = filepath.Join("bench", "golden.json")

// goldenEntry pins one workload's unit for goldenSeed: the digest of every
// simulated statistic, and the exact per-layer values of the traced drive.
type goldenEntry struct {
	Digest string             `json:"digest"`
	Exact  map[string]float64 `json:"exact"`
}

// goldenData is bench/golden.json, keyed shape → workload. It changes only
// through -update-golden.
//
//go:embed golden.json
var goldenData []byte

var goldenTable = func() map[string]map[string]goldenEntry {
	table := map[string]map[string]goldenEntry{}
	if err := json.Unmarshal(goldenData, &table); err != nil {
		panic(fmt.Sprintf("bench: golden.json: %v", err))
	}
	return table
}()

func goldenFor(shape, workload string) (goldenEntry, bool) {
	e, ok := goldenTable[shape][workload]
	return e, ok
}

// writeGolden replaces one shape's entries in the golden file at path and
// leaves the other shape's untouched.
func writeGolden(path, shape string, entries map[string]goldenEntry) error {
	table := map[string]map[string]goldenEntry{}
	for s, e := range goldenTable {
		table[s] = e
	}
	table[shape] = entries
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return fmt.Errorf("encode golden: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
