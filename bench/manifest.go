package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
)

// runSeconds is how long one run measures. Every operation is a
// fixed-size job of 11 to 23 s on the reference box, so a run is one or
// two whole operations.
const runSeconds = 20

// manifest is BENCHMARK.json, generated from the tables in this
// package (`bash bench/run.sh -manifest > BENCHMARK.json`).
func manifest() ([]byte, error) {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.name, w.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	return append(raw, '\n'), err
}

// checkManifest compares BENCHMARK.json in root with the tables of this
// package. Every run makes the check: the package is a module of its own
// that the repository's `go test ./...` does not reach, so a test alone
// would let the two drift apart unseen.
func checkManifest(root string) error {
	onDisk, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	generated, err := manifest()
	if err != nil {
		return err
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(generated, &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return errors.New("BENCHMARK.json differs from what `bash bench/run.sh -manifest` prints")
	}
	return nil
}
