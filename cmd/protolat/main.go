// Command protolat regenerates the tables and figures of "Analysis of
// Techniques to Improve Protocol Processing Latency" from the simulated
// apparatus in this repository.
//
// Usage:
//
//	protolat                     # everything, quick quality
//	protolat -quality paper      # everything, paper-scale sampling
//	protolat -table 4            # one table (1..9; 4 and 5 print together)
//	protolat -figure 2           # one figure (1 or 2)
//	protolat -stack rpc -version ALL -samples 5   # one configuration
//	protolat -parallel 8 -quality paper           # 8 workers; same output
//	protolat -faults -seed 7                      # fault-injection study
//	protolat -faults -rates 0,0.05 -stack rpc     # custom rates / RPC stack
//	protolat -stack tcpip -policy adaptive        # adaptive recovery timers
//	protolat -soak -seed 7                        # resumable soak across fault regimes
//	protolat -soak -checkpoint s.journal -soakstop 20   # stop early, journal kept
//	protolat -soak -checkpoint s.journal                # continue from the journal
//	protolat -profile -top 8                      # per-function mCPI attribution
//	protolat -lint                                # static layout lint, no simulation
//	protolat -optimize dec3000 -seed 1            # search placements vs the hand ALL layout
//	protolat -optimize all -budget 300                # whole matrix, custom search budget
//	protolat -machines list                       # print the machine-model matrix
//	protolat -machines all                        # layout x machine sweep, every model
//	protolat -machines dec3000,modern -stack rpc  # a subset, on the RPC stack
//	protolat -table 7 -json out.json              # structured export + manifest
//	protolat -serve -addr :8080 -store /var/lib/protolat   # experiment daemon
//	protolat -submit spec.json -addr localhost:8080        # submit a spec to it
//
// See docs/CLI.md for the complete flag reference with worked examples.
//
// The study modes (-stack, -table, -faults, -soak, -lint, -profile,
// -machines, -optimize) map their flags onto one daemon spec and compute
// it exactly as `protolat -serve` does, so the -json document equals the
// daemon's for the same spec. -figure, -throughput, -multiconn,
// -sensitivity, -machines list and the full evaluation run are CLI-only.
//
// Samples and table cells are independent simulations, so they run on a
// bounded worker pool (-parallel, default GOMAXPROCS). Results assemble in
// index order and are bit-for-bit identical to a serial run; -json output
// is likewise byte-identical at any -parallel width.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro"
)

// options holds the parsed command line.
type options struct {
	table, figure, samples, soakstop, budget, top int
	quality, stack, version, policy, rates, sens  string
	machines, optimize, checkpoint, jsonPath      string
	classifier, tput, mconn, faults, soak         bool
	profile, lint                                 bool
	seed                                          uint64

	parallel, workers, retries int
	serve                      bool
	addr, storeDir, submit     string
	drainTimeout               time.Duration
	storeMax                   int64
}

// parseFlags parses args into options. Errors and -help have already been
// reported on stderr when it returns them.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("protolat", flag.ContinueOnError)
	fs.IntVar(&o.table, "table", 0, "print one table (1..9); 0 = all")
	fs.IntVar(&o.figure, "figure", 0, "print one figure (1 or 2); 0 = per -table setting")
	fs.StringVar(&o.quality, "quality", "quick", "measurement effort: quick or paper")
	fs.StringVar(&o.stack, "stack", "", "run a single configuration: tcpip or rpc")
	fs.StringVar(&o.version, "version", "ALL", "version for -stack: BAD STD OUT CLO PIN ALL")
	fs.IntVar(&o.samples, "samples", 3, "samples for -stack runs")
	fs.BoolVar(&o.classifier, "classifier", false, "charge packet-classifier cost on PIN/ALL")
	fs.BoolVar(&o.tput, "throughput", false, "run the throughput check instead of tables")
	fs.StringVar(&o.sens, "sensitivity", "", "run a sensitivity sweep: cache, machine, or assoc")
	fs.BoolVar(&o.mconn, "multiconn", false, "run the connection-time cloning experiment")
	fs.BoolVar(&o.faults, "faults", false, "run the fault-injection study (degraded-path latency per layout strategy)")
	fs.BoolVar(&o.soak, "soak", false, "run the resumable soak: fault regimes x recovery policies x versions with tail-latency digests")
	fs.StringVar(&o.policy, "policy", "", "recovery policy for -stack runs: fixed (default) or adaptive")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "journal path for -soak, written after every chunk; an existing journal is resumed instead of starting over")
	fs.IntVar(&o.soakstop, "soakstop", 0, "stop the soak at the first chunk boundary at or after this many units (0 = run to completion)")
	fs.Uint64Var(&o.seed, "seed", 1, "deterministic seed for -faults, -soak, -machines and -optimize; same seed = byte-identical report at any -parallel")
	fs.StringVar(&o.rates, "rates", "", "comma-separated fault rates for -faults (default 0,0.02,0.05,0.10) and -machines (default clean links only)")
	fs.StringVar(&o.machines, "machines", "", "run the machine-matrix study on these models: \"all\", a comma-separated list of names, or \"list\" to print the matrix")
	fs.BoolVar(&o.profile, "profile", false, "per-function mCPI attribution and i-cache conflict heatmap per version")
	fs.BoolVar(&o.lint, "lint", false, "static layout lint: predicted i-cache conflicts per version from placed addresses, no simulation")
	fs.StringVar(&o.optimize, "optimize", "", "search code placements with the static cost engine on these machine models (\"all\" or a comma-separated list); every candidate is equivalence-proved, winners confirmed by simulation")
	fs.IntVar(&o.budget, "budget", 0, "annealing steps per machine for -optimize (0 = default)")
	fs.IntVar(&o.top, "top", 10, "functions listed per version in -profile output")
	fs.StringVar(&o.jsonPath, "json", "", "also write the run as a structured JSON document (manifest + data) to this path")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool for samples and table cells (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	fs.BoolVar(&o.serve, "serve", false, "run the experiment daemon: accept specs over HTTP, memoize results in -store, recover after crashes")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address for -serve (\":0\" picks a free port, announced on stderr) and daemon address for -submit")
	fs.StringVar(&o.storeDir, "store", "protolat-store", "store directory for -serve: memoized documents, the journaled job queue, soak checkpoints")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long -serve waits for in-flight jobs on SIGTERM before cancelling them (journals survive for restart)")
	fs.StringVar(&o.submit, "submit", "", "submit a spec file (\"-\" = stdin) to the daemon at -addr and print the resulting document")
	fs.IntVar(&o.workers, "workers", 1, "concurrent job executors for -serve; each job gets an equal share of the -parallel pool, output identical at any count")
	fs.Int64Var(&o.storeMax, "store-max", 0, "store byte cap for -serve: evict least-recently-used memoized documents past this size (0 = uncapped; journaled-but-unserved jobs never evicted)")
	fs.IntVar(&o.retries, "retries", 0, "retry -submit this many times on 429/503, honoring the daemon's Retry-After hint with capped exponential backoff (0 = fail fast)")
	return o, fs.Parse(args)
}

// spec maps the flags onto one study spec. Every flag lands in its field
// and Normalized keeps only those the kind reads; the switch is the mode
// precedence. Kind stays empty for the modes only the CLI has.
func (o *options) spec() repro.ServeSpec {
	s := repro.ServeSpec{
		Stack: o.stack, Version: o.version, Quality: o.quality, Samples: o.samples,
		Policy: o.policy, Classifier: o.classifier, Table: o.table, Seed: o.seed,
		Rates: o.rates, Top: o.top, Budget: o.budget,
	}
	switch {
	case o.soak:
		s.Kind = "soak"
	case o.optimize != "":
		s.Kind, s.Models = "optimize", o.optimize
	case o.lint:
		s.Kind = "lint"
	case o.profile:
		s.Kind = "profile"
	case o.faults:
		s.Kind = "faults"
	case o.machines != "" && o.machines != "list":
		s.Kind, s.Models = "machines", o.machines
	case o.machines != "" || o.tput || o.mconn || o.sens != "":
	case o.stack != "":
		s.Kind = "run"
	case o.figure == 1 || o.figure == 2:
	case o.table != 0:
		s.Kind = "table"
	}
	return s
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	repro.SetParallelism(o.parallel)

	switch {
	case o.serve:
		// PROTOLAT_FSFAULT injects a deterministic storage fault layer
		// beneath the daemon's store — the black-box seam the fsfault
		// smoke test uses to starve the real binary's disk writes.
		fsys, err := repro.StorageFromEnv(os.Getenv("PROTOLAT_FSFAULT"))
		check(err)
		srv, err := repro.NewServer(repro.ServeConfig{
			Addr:          o.addr,
			StoreDir:      o.storeDir,
			DrainTimeout:  o.drainTimeout,
			GitDescribe:   gitDescribe(),
			Workers:       o.workers,
			StoreMaxBytes: o.storeMax,
			FS:            fsys,
		})
		check(err)
		check(srv.ListenAndServe())
		return

	case o.submit != "":
		check(submitSpec(o.addr, o.submit, o.retries))
		return
	}

	spec := o.spec().Normalized()
	kind, q, err := spec.StackQuality()
	check(err)
	if spec.Kind != "" {
		st, err := repro.ComputeStudy(context.Background(), spec, gitDescribe(),
			repro.StudyExec{CheckpointPath: o.checkpoint, StopAfterUnits: o.soakstop})
		check(err)
		fmt.Println(st.Text())
		if st.Doc == nil {
			// A partial soak exports nothing: the document describes a
			// completed schedule, and the journal already holds the rest.
			if o.jsonPath != "" {
				fmt.Fprintf(os.Stderr, "soak stopped early; no JSON written (rerun with -checkpoint %s to resume)\n", o.checkpoint)
			}
			return
		}
		writeJSON(o.jsonPath, st.Doc)
		return
	}

	switch {
	case o.machines != "":
		for _, m := range repro.MachineMatrix() {
			fmt.Printf("%-12s %s\n", m.Name, m.Title)
		}

	case o.tput:
		emit(repro.ThroughputTable(40, 1400))

	case o.mconn:
		emit(repro.MultiConnectionTable(32))

	case o.sens != "":
		switch o.sens {
		case "machine":
			emit(repro.Sensitivity(kind, repro.MachineSweep(), q))
		case "assoc":
			emit(repro.SensitivityVersions(kind, repro.BAD, repro.ALL, repro.AssocSweep(), q))
		default:
			emit(repro.Sensitivity(kind, repro.CacheSweep(), q))
		}

	case o.figure == 1:
		text, err := repro.Figure1()
		check(err)
		fmt.Println(text)
		doc := newDoc("protolat -figure 1", q)
		doc.Figures = []repro.Figure{{Name: "figure1", Title: "Test Protocol Stacks", Text: text}}
		writeJSON(o.jsonPath, doc)

	case o.figure == 2:
		text, err := repro.Figure2()
		check(err)
		fmt.Println(text)
		doc := newDoc("protolat -figure 2", q)
		doc.Figures = []repro.Figure{{Name: "figure2",
			Title: "Effects of Outlining and Cloning on the i-cache footprint", Text: text}}
		writeJSON(o.jsonPath, doc)

	default:
		text, tables, runs, err := repro.Evaluation(q)
		check(err)
		fmt.Println(text)
		doc := newDoc("protolat -quality "+spec.Quality, q)
		doc.Tables, doc.Runs = tables, runs
		writeJSON(o.jsonPath, doc)
	}
}

// newDoc starts the document of a CLI-only mode. command is the semantic
// invocation: it excludes -parallel and -json, which cannot change the
// output.
func newDoc(command string, q repro.Quality) *repro.Document {
	doc := &repro.Document{Manifest: repro.NewManifest(command, 0, q)}
	doc.Manifest.GitDescribe = gitDescribe()
	return doc
}

// writeJSON writes doc to path, the -json export; without -json it does
// nothing.
func writeJSON(path string, doc *repro.Document) {
	if path == "" {
		return
	}
	b, err := doc.Marshal()
	check(err)
	check(repro.StorageDisk.WriteFile(path, b, 0o644))
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// gitDescribe identifies the checkout for the manifest; empty (and omitted
// from the document) when git or the repository is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// submitSpec posts a spec file to the daemon at addr and prints the
// resulting document to stdout; cache/fingerprint metadata goes to stderr.
// retries > 0 retries 429/503 rejections with the daemon's Retry-After hint
// and capped exponential backoff.
func submitSpec(addr, path string, retries int) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	res, err := repro.SubmitSpec(addr, data, repro.SubmitOptions{Retries: retries})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cache: %s  fingerprint: %s\n", res.Cache, res.Fingerprint)
	_, err = os.Stdout.Write(res.Body)
	return err
}

func emit(s string, err error) {
	check(err)
	fmt.Println(s)
}

// check exits on err: status 2 for an invalid flag value (a spec error),
// 1 for a failed study.
func check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "protolat:", err)
	var se *repro.ServeSpecError
	if errors.As(err, &se) {
		os.Exit(2)
	}
	os.Exit(1)
}
