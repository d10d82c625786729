package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkJSON is BENCHMARK.json, the benchmark's contract: the
// command, its directory, the run length, the workloads and the metrics
// with their regression bounds.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []nameWhy     `json:"workloads"`
	EndToEnd   []gatedMetric `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifestJSON is perfbench/manifest.json: everything BENCHMARK.json
// has no room for. Per workload, its flags, flush policy, corpus size,
// offered rate and operation mix; per metric, what it measures, which
// workloads report it, and for per-layer metrics the end-to-end metric
// and workload it should move.
type manifestJSON struct {
	Workloads []workloadRecord `json:"workloads"`
	EndToEnd  []e2eRecord      `json:"end_to_end"`
	PerLayer  []layerSpec      `json:"per_layer"`
}

type workloadRecord struct {
	Name          string         `json:"name"`
	Why           string         `json:"why"`
	Layers        string         `json:"layers"`
	ServerFlags   []string       `json:"server_flags"`
	FlushPolicy   string         `json:"flush_policy"`
	Gate          bool           `json:"in_benchmark_json"`
	CorpusRecipes int            `json:"corpus_recipes"`
	OpenLoopRate  float64        `json:"open_loop_ops_per_s"`
	ClosedClients int            `json:"closed_loop_clients"`
	Mix           map[string]int `json:"ops_per_block"`
	MixBasis      string         `json:"ops_per_block_basis"`
	Checks        string         `json:"checks"`
}

type e2eRecord struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	Gated  bool     `json:"gated"`
	Doc    string   `json:"doc"`
	Absent []string `json:"absent_on,omitempty"`
}

func benchmarkManifest() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Gate {
			b.Workloads = append(b.Workloads, nameWhy{w.Name, whyLine(w)})
		}
	}
	for _, m := range endToEnd {
		if m.Gated {
			b.EndToEnd = append(b.EndToEnd, gatedMetric{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	for _, l := range layerSpecs() {
		b.PerLayer = append(b.PerLayer, layerMetric{l.Name, l.Unit, l.Better})
	}
	return b
}

// whyLine is a workload's one-line record in BENCHMARK.json.
func whyLine(w workload) string {
	return fmt.Sprintf("%d recipes (-scale %g), default flush, open loop %g ops/s; %s", w.CorpusRecipes, w.Scale, w.Rate, w.Why)
}

func fullManifest() manifestJSON {
	var m manifestJSON
	for _, w := range workloads {
		flags := serverArgs(w, "127.0.0.1:PORT", "RUNDIR/db")
		flush := "cmd/server default: no fsync per write; segments sync on rotation and close"
		checks := "every 2xx body parses; acked writes appear in their read-your-writes reads and probes; live_drift within the band"
		if w.Reference {
			checks = "every 2xx body parses; pairing results equal in-process pairing.Compare bit for bit; recipe reads, pages, region counts and query rows equal the reference corpus"
		}
		mix := map[string]int{}
		for _, e := range w.Deck {
			mix[e.Kind.String()] += e.N
		}
		m.Workloads = append(m.Workloads, workloadRecord{
			Name: w.Name, Why: w.Why, Layers: w.Layers, Gate: w.Gate, ServerFlags: flags, FlushPolicy: flush,
			CorpusRecipes: w.CorpusRecipes, OpenLoopRate: w.Rate, ClosedClients: maxConns, Mix: mix, MixBasis: mixBasis, Checks: checks,
		})
	}
	for _, e := range endToEnd {
		r := e2eRecord{Name: e.Name, Unit: e.Unit, Better: e.Better, Bound: e.Bound, Gated: e.Gated, Doc: e.Doc}
		if c, _, ok := classMetric(e.Name); ok {
			for _, w := range workloads {
				if !sendsClass(w, c) {
					r.Absent = append(r.Absent, w.Name)
				}
			}
		}
		m.EndToEnd = append(m.EndToEnd, r)
	}
	m.PerLayer = layerSpecs()
	return m
}

// sendsClass reports whether workload w sends requests of class c.
func sendsClass(w workload, c class) bool {
	for _, e := range w.Deck {
		for _, rt := range opRoutes[e.Kind] {
			if classOf(rt) == c {
				return true
			}
		}
	}
	return false
}

// opRoutes lists the routes each operation kind sends.
var opRoutes = [numOpKinds][]route{
	opRecipeGet: {rRecipeGet}, opRecipesPage: {rRecipesPage}, opIngredientPairings: {rIngredientPairings},
	opComplete: {rComplete}, opClassify: {rClassify}, opSearch: {rSearch}, opQuery: {rQuery},
	opRegions: {rRegions}, opRegion: {rRegion}, opPairing: {rPairing},
	opUpsert:       {rUpsert, rRecipeGet, rSearch},
	opCreateDelete: {rUpsert, rRecipeGet, rSearch, rDelete},
	opBatch:        {rBatch, rRecipeGet, rSearch},
}

func marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeManifests writes BENCHMARK.json and perfbench/manifest.json
// under the repository root.
func writeManifests(root string) error {
	for path, v := range map[string]any{
		"BENCHMARK.json":          benchmarkManifest(),
		"perfbench/manifest.json": fullManifest(),
	} {
		data, err := marshal(v)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(path)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
