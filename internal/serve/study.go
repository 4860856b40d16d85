package serve

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/protocols/recovery"
	"repro/internal/soak"
	"repro/internal/storage"
)

// Exec carries the execution details of a study that its fingerprint
// leaves out: they change how a study runs, never its document.
type Exec struct {
	// EventBudget overrides the per-sample simulation watchdog (0 =
	// library default); exhaustion fails the study with a BudgetError.
	EventBudget int
	// FS is the filesystem a soak's checkpoint journal goes through; nil
	// means the real disk.
	FS storage.FS
	// CheckpointPath, when set, journals a soak after every chunk. A soak
	// whose journal already exists resumes from it instead of starting
	// over.
	CheckpointPath string
	// StopAfterUnits, when positive, stops a soak at the first chunk
	// boundary at or past that many units, its journal kept for resuming.
	StopAfterUnits int
}

// Study is one computed study.
type Study struct {
	// Doc is the study's document; nil when a soak stopped before its
	// schedule completed (its journal holds the rest).
	Doc *obs.Document
	// Text renders the report protolat prints for the study, from the
	// same computed values as Doc.
	Text func() string
}

// Compute normalizes and validates spec, then runs the study it describes
// once. The manifest records the kind's command and gitDescribe, so the
// protolat CLI and the daemon, which both compute through here, write
// byte-identical documents for the same spec on the same checkout. An
// invalid spec fails with a *SpecError.
func Compute(ctx context.Context, spec Spec, gitDescribe string, x Exec) (*Study, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	stack, q, _ := spec.StackQuality()
	k := kinds[spec.Kind]
	out, err := k.run(ctx, request{Spec: spec, stack: stack, q: q, x: x})
	if err != nil {
		return nil, err
	}
	st := &Study{Text: out.text}
	if out.section != nil {
		st.Doc = &obs.Document{Manifest: core.NewManifest(k.command(spec), spec.Seed, q)}
		st.Doc.Manifest.GitDescribe = gitDescribe
		out.section(st.Doc)
	}
	return st, nil
}

// kindDef is one study kind: everything that turns a spec of that kind
// into output. Normalized, Validate and Compute all dispatch through the
// kinds registry, so a kind is defined in exactly one place.
type kindDef struct {
	// keep copies the fields the kind reads from s onto c, which already
	// holds the canonical common fields, filling their defaults. A field
	// keep does not copy stays zero, so it cannot reach the fingerprint.
	keep func(c *Spec, s Spec)
	// check validates the kind's own fields of a normalized spec; nil
	// when the common checks suffice.
	check func(s Spec) error
	// command is the semantic protolat invocation the manifest records.
	// Seeds reach the manifest through Spec.Seed, which keep zeroes for
	// kinds that take none.
	command func(s Spec) string
	// run computes the study once.
	run func(ctx context.Context, r request) (output, error)
}

// request is a normalized, valid spec with its stack and quality preset
// resolved, plus the execution details.
type request struct {
	Spec
	stack core.StackKind
	q     core.Quality
	x     Exec
}

// output is a computed study: its document section and its text report,
// both over the same computed values.
type output struct {
	// section fills the document's data; nil means no document.
	section func(*obs.Document)
	text    func() string
}

// kindNames lists the kinds in the order error messages name them.
const kindNames = "run, table, faults, soak, lint, profile, machines, optimize"

// kinds is the study registry.
var kinds = map[string]kindDef{
	"run": {
		keep: func(c *Spec, s Spec) {
			c.Version = canonVersion(s.Version)
			c.Samples = orDefaultInt(s.Samples, 3)
			c.Policy = lowerTrim(s.Policy)
			c.Classifier = s.Classifier
		},
		check: func(s Spec) error {
			if _, err := s.version(); err != nil {
				return err
			}
			if _, err := recovery.ParseKind(s.Policy); err != nil {
				return &SpecError{Field: "policy", Msg: err.Error()}
			}
			return nil
		},
		command: func(s Spec) string {
			cmd := fmt.Sprintf("protolat -stack %s -version %s -samples %d", s.Stack, s.Version, s.Samples)
			if s.Policy != "" {
				cmd += " -policy " + s.Policy
			}
			if s.Classifier {
				cmd += " -classifier"
			}
			return cmd
		},
		run: runOne,
	},
	"table": {
		keep: func(c *Spec, s Spec) { c.Table = s.Table },
		check: func(s Spec) error {
			if s.Table < 1 || s.Table > 9 {
				return &SpecError{Field: "table", Msg: fmt.Sprintf("table %d out of range (want 1..9)", s.Table)}
			}
			return nil
		},
		command: func(s Spec) string { return fmt.Sprintf("protolat -table %d -quality %s", s.Table, s.Quality) },
		run:     runTable,
	},
	"faults": {
		keep: func(c *Spec, s Spec) {
			c.Seed = orDefault(s.Seed, 1)
			c.Rates = strings.ReplaceAll(s.Rates, " ", "")
		},
		check: checkRates,
		command: func(s Spec) string {
			return fmt.Sprintf("protolat -faults -stack %s -seed %d -rates %s -quality %s", s.Stack, s.Seed, s.Rates, s.Quality)
		},
		run: runFaults,
	},
	"soak": {
		keep: func(c *Spec, s Spec) {
			c.Seed = orDefault(s.Seed, 1)
			c.SoakBatches, c.SoakRoundtrips = s.SoakBatches, s.SoakRoundtrips
		},
		command: func(s Spec) string {
			return fmt.Sprintf("protolat -soak -stack %s -seed %d -quality %s", s.Stack, s.Seed, s.Quality)
		},
		run: runSoak,
	},
	"lint": {
		// Lint is static: neither quality nor any run parameter matters.
		keep:    func(c *Spec, s Spec) { c.Quality = "quick" },
		command: func(s Spec) string { return "protolat -lint -stack " + s.Stack },
		run:     runLint,
	},
	"profile": {
		keep: func(c *Spec, s Spec) { c.Top = orDefaultInt(s.Top, 10) },
		command: func(s Spec) string {
			return fmt.Sprintf("protolat -profile -stack %s -top %d -quality %s", s.Stack, s.Top, s.Quality)
		},
		run: runProfile,
	},
	"machines": {
		keep: func(c *Spec, s Spec) {
			c.Seed = orDefault(s.Seed, 1)
			c.Models = canonModels(s.Models)
			c.Rates = strings.ReplaceAll(s.Rates, " ", "")
		},
		check: func(s Spec) error {
			if err := checkModels(s); err != nil {
				return err
			}
			return checkRates(s)
		},
		command: func(s Spec) string {
			return fmt.Sprintf("protolat -machines %s -stack %s -seed %d -rates %s -quality %s",
				s.Models, s.Stack, s.Seed, s.Rates, s.Quality)
		},
		run: runMachines,
	},
	"optimize": {
		keep: func(c *Spec, s Spec) {
			c.Seed = orDefault(s.Seed, 1)
			// The default budget is part of the canonical spec: a request
			// that spells it out fingerprints like one that relies on it.
			c.Budget = orDefaultInt(s.Budget, optimize.DefaultBudget)
			c.Models = canonModels(s.Models)
		},
		check: checkModels,
		command: func(s Spec) string {
			return fmt.Sprintf("protolat -optimize %s -stack %s -seed %d -budget %d -candidates %d -quality %s",
				s.Models, s.Stack, s.Seed, s.Budget, optimize.DefaultTopK, s.Quality)
		},
		run: runOptimize,
	},
}

// canonVersion defaults an empty version to ALL and folds a known one to
// its canonical case; an unknown name is kept for Validate to reject.
func canonVersion(name string) string {
	if name == "" {
		return "ALL"
	}
	for _, v := range core.Versions() {
		if strings.EqualFold(v.String(), name) {
			return v.String()
		}
	}
	return name
}

// canonModels folds a machine selection's case and spaces; "all" and ""
// select the same sweep and share the spelling "all". Explicit lists keep
// their order: it is report order, a semantic input.
func canonModels(models string) string {
	return orDefault(strings.ReplaceAll(strings.ToLower(models), " ", ""), "all")
}

// orDefaultInt returns n, or def when n is not positive.
func orDefaultInt(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// checkRates validates an optional fault-rate list.
func checkRates(s Spec) error {
	if s.Rates == "" {
		return nil
	}
	if _, err := parseRates(s.Rates); err != nil {
		return &SpecError{Field: "rates", Msg: err.Error()}
	}
	return nil
}

// checkModels validates a machine-model selection.
func checkModels(s Spec) error {
	if _, err := machines.Select(s.Models); err != nil {
		return &SpecError{Field: "models", Msg: err.Error()}
	}
	return nil
}

// rates resolves a validated fault-rate list; nil keeps the study default.
func (r request) rates() []float64 {
	if r.Rates == "" {
		return nil
	}
	rates, _ := parseRates(r.Rates)
	return rates
}

// models resolves a validated machine-model selection.
func (r request) models() []machines.Model {
	models, _ := machines.Select(r.Models)
	return models
}

// matrixQuality is the per-cell quality of the machine study and the
// layout search's confirmation runs at paper quality.
var matrixQuality = core.Quality{Warmup: 8, Measured: 24, Samples: 3}

func runOne(ctx context.Context, r request) (output, error) {
	ver, _ := r.version()
	rk, _ := recovery.ParseKind(r.Policy)
	cfg := core.DefaultConfig(r.stack, ver)
	cfg.Warmup, cfg.Measured, cfg.Samples = r.q.Warmup, r.q.Measured, r.Samples
	cfg.UseClassifier = r.Classifier
	cfg.Recovery = rk
	cfg.EventBudget = r.x.EventBudget
	cfg.Profile = true
	res, err := core.RunCtx(ctx, cfg)
	if err != nil {
		return output{}, err
	}
	return output{
		section: func(d *obs.Document) { d.Runs = []obs.Run{core.RunDoc(res)} },
		text: func() string {
			s := res.First()
			return fmt.Sprintf("%v %v: Te %.1f +- %.2f us | Tp %.1f us | %0.f instrs | CPI %.2f (iCPI %.2f, mCPI %.2f)\n",
				r.stack, ver, res.TeMeanUS, res.TeStdUS, s.TpUS, s.TraceLen, s.CPI, s.ICPI, s.MCPI) +
				fmt.Sprintf("  i-cache %v | d-cache/wb %v | b-cache %v\n", s.ICache, s.DCache, s.BCache) +
				fmt.Sprintf("  phases: wire %.1f us | controller %.1f us | processing %.1f us | timer wait %.1f us",
					s.Phases.WireUS, s.Phases.ControllerUS, s.Phases.ProcessUS, s.Phases.TimerWaitUS)
		},
	}, nil
}

func runTable(ctx context.Context, r request) (output, error) {
	if r.Table <= 3 {
		full := []func(core.Quality) (string, obs.Table, error){core.Table1Full, core.Table2Full, core.Table3Full}
		text, data, err := full[r.Table-1](r.q)
		if err != nil {
			return output{}, err
		}
		return output{
			section: func(d *obs.Document) { d.Tables = []obs.Table{data} },
			text:    func() string { return text },
		}, nil
	}
	tcpip, rpc, err := core.RunSweepsProfiledCtx(ctx, r.q)
	if err != nil {
		return output{}, err
	}
	var render func(tcpip, rpc map[core.Version]*core.Result) string
	var data []obs.Table
	switch r.Table {
	case 4, 5:
		render, data = core.Table45, core.Table45Data(tcpip, rpc)
	case 6:
		render, data = core.Table6, []obs.Table{core.Table6Data(tcpip, rpc)}
	case 7:
		render, data = core.Table7, []obs.Table{core.Table7Data(tcpip, rpc)}
	case 8:
		render, data = core.Table8, []obs.Table{core.Table8Data(tcpip, rpc)}
	case 9:
		render, data = core.Table9, []obs.Table{core.Table9Data(tcpip, rpc)}
	}
	return output{
		section: func(d *obs.Document) {
			d.Tables = data
			d.Runs = append(core.RunsDoc(tcpip), core.RunsDoc(rpc)...)
		},
		text: func() string { return render(tcpip, rpc) },
	}, nil
}

func runFaults(ctx context.Context, r request) (output, error) {
	cfg := core.DefaultFaultStudy(r.stack, r.Seed)
	if r.Quality != "paper" {
		cfg.Quality = core.Quality{Warmup: 3, Measured: 12, Samples: 1}
	}
	if rates := r.rates(); rates != nil {
		cfg.Rates = rates
	}
	cfg.EventBudget = r.x.EventBudget
	cells, err := core.FaultStudyCtx(ctx, cfg)
	if err != nil {
		return output{}, err
	}
	rcells, err := core.RecoveryComparisonCtx(ctx, r.stack, r.Seed, cfg.Quality)
	if err != nil {
		return output{}, err
	}
	return output{
		section: func(d *obs.Document) {
			d.FaultStudy = core.FaultStudyDocOf(cfg, cells)
			d.FaultStudy.Recovery = core.RecoveryDocOf(rcells)
		},
		text: func() string { return core.RenderFaultStudy(cfg, cells, rcells) },
	}, nil
}

func runSoak(ctx context.Context, r request) (output, error) {
	cfg := soak.DefaultConfig(r.stack, r.Seed)
	if r.Quality == "paper" {
		cfg.BatchesPerCell = 10
		cfg.BatchRoundtrips = 24
	}
	if r.SoakBatches > 0 {
		cfg.BatchesPerCell = r.SoakBatches
	}
	if r.SoakRoundtrips > 0 {
		cfg.BatchRoundtrips = r.SoakRoundtrips
	}
	cfg.EventBudget = r.x.EventBudget
	cfg.CheckpointPath = r.x.CheckpointPath
	cfg.StopAfterUnits = r.x.StopAfterUnits
	cfg.FS = r.x.FS
	run := soak.RunCtx
	if cfg.CheckpointPath != "" {
		if _, err := storage.Default(cfg.FS).Stat(cfg.CheckpointPath); err == nil {
			// A checkpoint from an interrupted earlier attempt: resume
			// it instead of recomputing finished chunks. A tampered or
			// mismatched journal surfaces as a typed *soak.JournalError.
			run = soak.ResumeCtx
		}
	}
	res, err := run(ctx, cfg)
	if err != nil {
		return output{}, err
	}
	out := output{text: func() string { return soak.Report(res) }}
	if !res.Stopped {
		out.section = func(d *obs.Document) {
			// The manifest's quality block records the soak's own batch
			// shape.
			d.Manifest.Quality = obs.QualityDoc{Warmup: cfg.Warmup, Measured: cfg.BatchRoundtrips, Samples: cfg.BatchesPerCell}
			d.Soak = soak.Doc(res)
		}
	}
	return out, nil
}

func runLint(_ context.Context, r request) (output, error) {
	cells, err := core.LintStudy(r.stack, core.Bipartite)
	if err != nil {
		return output{}, err
	}
	return output{
		section: func(d *obs.Document) { d.Verify = core.LintStudyDocOf(r.stack, core.Bipartite, cells) },
		text:    func() string { return core.RenderLintStudy(r.stack, core.Bipartite, cells) },
	}, nil
}

func runProfile(ctx context.Context, r request) (output, error) {
	text, results, err := core.ProfileReportCtx(ctx, r.stack, r.q, r.Top)
	if err != nil {
		return output{}, err
	}
	return output{
		section: func(d *obs.Document) {
			d.Runs = core.RunsDoc(results)
			d.Figures = []obs.Figure{{Name: "profile", Title: "Per-function mCPI attribution", Text: text}}
		},
		text: func() string { return text },
	}, nil
}

func runMachines(ctx context.Context, r request) (output, error) {
	cfg := core.DefaultMachineStudy(r.stack, r.Seed)
	cfg.Models = r.models()
	if r.Quality == "paper" {
		cfg.Quality = matrixQuality
	}
	if rates := r.rates(); rates != nil {
		cfg.Rates = rates
	}
	cfg.EventBudget = r.x.EventBudget
	cells, err := core.MachineStudyCtx(ctx, cfg)
	if err != nil {
		return output{}, err
	}
	return output{
		section: func(d *obs.Document) { d.Machines = core.MachineStudyDocOf(cfg, cells) },
		text:    func() string { return core.RenderMachineStudy(cfg, cells) },
	}, nil
}

func runOptimize(ctx context.Context, r request) (output, error) {
	cfg := optimize.Default(r.stack, r.Seed)
	cfg.Models = r.models()
	cfg.Budget = r.Budget
	if r.Quality == "paper" {
		cfg.Quality = matrixQuality
	}
	cfg.EventBudget = r.x.EventBudget
	results, err := optimize.RunCtx(ctx, cfg)
	if err != nil {
		return output{}, err
	}
	return output{
		section: func(d *obs.Document) { d.Optimize = optimize.DocOf(cfg, results) },
		text:    func() string { return optimize.Render(cfg, results) },
	}, nil
}
