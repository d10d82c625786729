// Command perfbench is the repository's benchmark: it drives the real
// cmd/server binary with one of three workloads from a single
// load-generator process and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 16 --trace 0
//
// run.sh builds cmd/server and perfbench into .bench_build and runs
// perfbench from the repository root. Each run
//
//   - prepares the workload's corpus once (cmd/server generates and
//     saves it into .bench_build/prep) and starts every server on a
//     fresh copy of it;
//   - times set-up: server start to the first 200 from /api/health;
//   - warms up, then measures capacity in a closed loop with 2 clients
//     and latency in an open loop at the workload's fixed rate, timing
//     each operation from its due time;
//   - checks every response: 2xx bodies parse, reads of the read-only
//     workload equal the in-process reference corpus (pairing results
//     bit for bit), every acked write shows in its read-your-writes
//     probes, and the live corpus size holds steady.
//
// With --trace 1 the run continues with a traced run: the same server
// composed in process from its packages, with spans recorded around the
// calls into each layer, and prints the per-layer metrics instead.
// -manifest writes BENCHMARK.json and perfbench/manifest.json from the
// tables in spec.go.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// workDir, relative to the repository root, holds everything a run
// builds and writes; run.sh builds serverBin there.
const (
	workDir   = ".bench_build"
	serverBin = workDir + "/bin/server"
)

// runSeconds is the measured time of one run: the closed loop takes
// closedShare of it and the open loop the rest.
const (
	runSeconds  = 16
	closedShare = 0.5
	warmup      = 2 * time.Second
	// setupStarts servers are timed per run, setupBefore of them before
	// the measured window and the rest after it; setup_s is their median.
	setupStarts = 9
	setupBefore = 5
	// driftBand bounds |live_drift|: the write mixes replace recipes in
	// place and delete what they create, so the live corpus size must
	// end where it started.
	driftBand = 0.001
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: browse, ingest or mixed")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed sends the same requests")
		seconds  = flag.Int("seconds", runSeconds, "measured seconds")
		trace    = flag.Int("trace", 0, "1 adds the traced in-process run and prints the per-layer metrics")
		manifest = flag.Bool("manifest", false, "write BENCHMARK.json and perfbench/manifest.json, then exit")
	)
	flag.Parse()
	if *manifest {
		if err := writeManifests("."); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	// Everything the run does must end well inside the 180 s a run is
	// allowed; a hung server fails the run instead of stalling it.
	limit := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(2)
	})
	defer limit.Stop()

	// perfbench holds the reference corpus; collecting it less often
	// keeps the generator's GC from taking bursts of the cores the
	// server is measured on.
	debug.SetGCPercent(400)

	cfg := config{w: w, seed: *seed, seconds: *seconds}
	out, err := run(cfg, *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type config struct {
	w       workload
	seed    uint64
	seconds int
}

func (c config) closed() time.Duration {
	return time.Duration(closedShare * float64(c.seconds) * float64(time.Second))
}

func (c config) open() time.Duration {
	return time.Duration(c.seconds)*time.Second - c.closed()
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config, trace bool) (*output, error) {
	if _, err := os.Stat(serverBin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	prep, err := prepare(cfg.w)
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(workDir, "run-"+cfg.w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	ref, err := loadReference(prep, cfg.w)
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d: %d recipes at scale %g, open loop %g ops/s, closed loop %d clients\n",
		cfg.w.Name, cfg.seed, cfg.seconds, cfg.w.CorpusRecipes, cfg.w.Scale, cfg.w.Rate, maxConns)

	e2e, err := runReal(cfg, prep, runDir, ref)
	if err != nil {
		return nil, err
	}
	out := &output{
		Correct:   e2e.correct(),
		Attempted: e2e.closed.attempted + e2e.open.attempted,
		Failed:    e2e.closed.failed + e2e.open.failed,
		Metrics:   map[string]metric{},
	}
	e2e.report()
	if !trace {
		for _, m := range endToEnd {
			if m.Gated {
				v, _, _ := e2e.value(m.Name)
				out.Metrics[m.Name] = metric{v, m.Unit}
			}
		}
		return out, nil
	}
	layers, err := runTraced(cfg, prep, runDir, ref, e2e)
	if err != nil {
		return nil, err
	}
	out.Correct = out.Correct && layers.correct
	out.Attempted += layers.attempted
	out.Failed += layers.failed
	for _, l := range layerSpecs() {
		v, ok := layers.values[l.Name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", l.Name)
		}
		out.Metrics[l.Name] = metric{v, l.Unit}
	}
	return out, nil
}
