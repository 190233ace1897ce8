package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json: the workloads, and every metric with its unit,
// direction and regression bound.  The program reads it so printed bounds
// and -compare verdicts use exactly the numbers the file commits to.
type spec struct {
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const specName = "BENCHMARK.json"

// findSpec looks for BENCHMARK.json in the working directory and its
// parents, so the command works from the repository root (as the
// benchmark is run) and from this package's directory (go run ., go test).
// It returns the spec and the directory holding it.
func findSpec() (*spec, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, specName))
		if err == nil {
			var s spec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, "", fmt.Errorf("%s: %w", filepath.Join(dir, specName), err)
			}
			return &s, dir, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", fmt.Errorf("%s not found in the working directory or its parents", specName)
		}
		dir = parent
	}
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
