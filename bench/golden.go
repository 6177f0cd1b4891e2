package main

import (
	"embed"
	"encoding/json"
	"fmt"
)

// goldenFS holds golden/<workload>.json: for every configuration the
// workload can produce under any seed, the sha256 of its canonical result
// JSON (json.Marshal of sim.Result, which is also the byte string the
// daemon serves). bench_test.go -update regenerates them.
//
//go:embed golden/*.json
var goldenFS embed.FS

func loadGolden(workload string) (map[string]string, error) {
	b, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("no golden digests for %s: %w", workload, err)
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	return m, nil
}
