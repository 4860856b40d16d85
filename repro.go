// Package repro is the public API of this reproduction of Mosberger,
// Peterson, Bridges and O'Malley, "Analysis of Techniques to Improve
// Protocol Processing Latency" (University of Arizona TR 96-03 / SIGCOMM
// 1996).
//
// The library simulates the paper's entire experimental apparatus: a DEC
// 3000/600-class machine (dual-issue Alpha 21064 with direct-mapped split
// first-level caches, a write-merging write buffer, and a 2 MB board
// cache), an x-kernel protocol framework with functional TCP/IP and
// Sprite-RPC protocol stacks running over a simulated LANCE Ethernet, and
// the paper's three latency-reducing code transformations — outlining,
// cloning (with bipartite, linear, micro-positioned and adversarial
// layouts), and path-inlining.
//
// Quick start:
//
//	res, err := repro.Run(repro.DefaultConfig(repro.StackTCPIP, repro.ALL))
//	fmt.Printf("roundtrip: %.1f us, mCPI %.2f\n", res.TeMeanUS, res.First().MCPI)
//
// Or regenerate the paper's entire evaluation section:
//
//	report, err := repro.RenderAll(repro.PaperQuality)
//
// The building blocks (machine simulator, object-code models, layout
// engine, protocol implementations) live under internal/; this package
// re-exports the experiment-level API a downstream user drives.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/protocols/recovery"
	"repro/internal/serve"
	"repro/internal/soak"
	"repro/internal/storage"
)

// Version is one of the paper's six measured configurations.
type Version = core.Version

// The six configurations of §4.2.
const (
	// STD includes the §2 improvements but none of the §3 techniques.
	STD = core.STD
	// OUT adds outlining.
	OUT = core.OUT
	// CLO adds cloning with the bipartite layout.
	CLO = core.CLO
	// BAD uses cloning to construct a pessimal layout.
	BAD = core.BAD
	// PIN is OUT plus path-inlining.
	PIN = core.PIN
	// ALL combines every technique.
	ALL = core.ALL
)

// Versions lists all configurations in Table 4 order.
func Versions() []Version { return core.Versions() }

// StackKind selects the protocol stack under test.
type StackKind = core.StackKind

// The two test stacks of Figure 1.
const (
	StackTCPIP = core.StackTCPIP
	StackRPC   = core.StackRPC
)

// CloneStrategy selects the cloned-code layout (the §3.2 ablation).
type CloneStrategy = core.CloneStrategy

// Cloned-code layout strategies.
const (
	Bipartite     = core.Bipartite
	MicroPosition = core.MicroPosition
	LinearLayout  = core.LinearLayout
)

// Config describes one experiment; Result carries its measurements.
type (
	Config  = core.Config
	Result  = core.Result
	Sample  = core.Sample
	Quality = core.Quality
)

// Measurement effort presets.
var (
	Quick        = core.Quick
	PaperQuality = core.PaperQuality
)

// DefaultConfig returns the paper's measurement shape for a stack/version.
func DefaultConfig(kind StackKind, v Version) Config { return core.DefaultConfig(kind, v) }

// Run executes one experiment. Samples fan out over a bounded worker pool
// (see SetParallelism) and assemble in index order, so results are
// bit-for-bit identical to serial execution.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunCtx is Run with cooperative cancellation: ctx is consulted between
// samples, so a cancelled experiment stops at the next sample boundary.
// Cancellation changes only whether a result is produced, never its bytes.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) { return core.RunCtx(ctx, cfg) }

// SetParallelism bounds the worker pool Run and the table generators use;
// n <= 0 restores the default (GOMAXPROCS). Every sample and table cell is
// an independent simulation sharing only immutable linked programs, so the
// setting changes wall-clock time, never results.
func SetParallelism(n int) { core.SetParallelism(n) }

// Parallelism reports the current worker-pool width.
func Parallelism() int { return core.Parallelism() }

// RunVersions runs all six configurations of one stack.
func RunVersions(kind StackKind, q Quality) (map[Version]*Result, error) {
	return core.RunVersions(kind, q)
}

// Table and figure regeneration, one function per exhibit of the paper's
// evaluation section.
var (
	Table1  = core.Table1
	Table2  = core.Table2
	Table3  = core.Table3
	Table45 = core.Table45
	Table6  = core.Table6
	Table7  = core.Table7
	Table8  = core.Table8
	Table9  = core.Table9
	Figure1 = core.Figure1
	Figure2 = core.Figure2
)

// RenderAll regenerates the full evaluation section.
func RenderAll(q Quality) (string, error) { return core.RenderAll(q) }

// Evaluation runs the full evaluation section once: the report RenderAll
// prints, plus Tables 4-9 as structured data and the profiled runs behind
// them.
func Evaluation(q Quality) (text string, tables []Table, runs []RunExport, err error) {
	return core.Evaluation(q)
}

// ThroughputResult reports a bulk-transfer measurement; Throughput and
// ThroughputTable verify the paper's §4.1 claim that the latency techniques
// do not hurt throughput.
type ThroughputResult = core.ThroughputResult

// Throughput streams TCP segments in the given version and measures
// goodput over the 10 Mb/s simulated Ethernet.
func Throughput(v Version, segments, payloadBytes int) (ThroughputResult, error) {
	return core.Throughput(v, segments, payloadBytes)
}

// ThroughputTable runs the throughput check for every version.
func ThroughputTable(segments, payloadBytes int) (string, error) {
	return core.ThroughputTable(segments, payloadBytes)
}

// SweepPoint names one machine geometry of a sensitivity sweep.
type SweepPoint = core.SweepPoint

// CacheSweep and MachineSweep return the built-in geometry sweeps; the
// latter contrasts the DEC 3000/600 with the paper's closing remark about a
// 266 MHz / 66 MB/s machine.
var (
	CacheSweep   = core.CacheSweep
	MachineSweep = core.MachineSweep
)

// Sensitivity records STD/ALL traces once and replays them across machine
// geometries, quantifying how the techniques' value scales with the
// processor/memory gap.
func Sensitivity(kind StackKind, points []SweepPoint, q Quality) (string, error) {
	return core.Sensitivity(kind, points, q)
}

// RecordTrace captures the client's instruction trace for one steady-state
// path invocation; replay it with internal/trace or cmd/tracesim.
var RecordTrace = core.RecordTrace

// AssocSweep varies first-level cache associativity — the what-if ablation
// behind the paper's remark about "small associativity caches".
var AssocSweep = core.AssocSweep

// SensitivityVersions replays an arbitrary version pair across machine
// geometries.
func SensitivityVersions(kind StackKind, a, b Version, points []SweepPoint, q Quality) (string, error) {
	return core.SensitivityVersions(kind, a, b, points, q)
}

// MultiConnResult measures a round-robin ping-pong over several TCP
// connections; MultiConnection and MultiConnectionTable explore §3.2's
// connection-time cloning trade-off and the demux cache's locality
// assumption.
type MultiConnResult = core.MultiConnResult

// MultiConnection runs the round-robin multi-connection ping-pong.
func MultiConnection(nConns, roundtrips int, perConnClones bool) (MultiConnResult, error) {
	return core.MultiConnection(nConns, roundtrips, perConnClones)
}

// MultiConnectionTable sweeps connection counts with shared vs
// per-connection clones.
func MultiConnectionTable(roundtrips int) (string, error) {
	return core.MultiConnectionTable(roundtrips)
}

// FaultPlan is a deterministic per-link fault plan (loss, burst loss,
// corruption, duplication, reordering, jitter); set Config.Faults to run
// any experiment under it. FaultCounters tallies what an injector did.
type (
	FaultPlan     = faults.Plan
	BurstPlan     = faults.BurstPlan
	FaultCounters = faults.Counters
)

// FaultStats is one run's fault accounting, surfaced per sample in
// Result.Samples and aggregated by Result.FaultTotals.
type FaultStats = core.FaultStats

// FaultStudyConfig and FaultCell parameterize and report the degraded-path
// latency study.
type (
	FaultStudyConfig = core.FaultStudyConfig
	FaultCell        = core.FaultCell
)

// DefaultFaultStudy returns the standard study shape: STD/OUT/CLO/PIN at
// fault rates {0, 0.02, 0.05, 0.10}.
func DefaultFaultStudy(kind StackKind, seed uint64) FaultStudyConfig {
	return core.DefaultFaultStudy(kind, seed)
}

// FaultStudy runs every (version, rate) cell and returns the raw cells;
// RenderFaultStudy renders them, with a RecoveryComparison, as the table
// `protolat -faults` prints. Both are deterministic at any parallelism for
// a fixed seed.
func FaultStudy(cfg FaultStudyConfig) ([]FaultCell, error) { return core.FaultStudy(cfg) }

// FaultStudyCtx is FaultStudy with cooperative cancellation: ctx is
// consulted between cells and between the samples within a cell.
func FaultStudyCtx(ctx context.Context, cfg FaultStudyConfig) ([]FaultCell, error) {
	return core.FaultStudyCtx(ctx, cfg)
}

// RenderFaultStudy renders computed fault-study cells: per layout strategy
// and fault rate, mainline vs degraded-path roundtrip latency with
// reconciled fault counters and the §4.3 phase split of each population,
// followed by the recovery comparison rcells.
var RenderFaultStudy = core.RenderFaultStudy

// MachineModel is one named machine configuration of the curated matrix
// (internal/machines): the paper's DEC 3000/600 plus variants that change
// one hardware dimension at a time.
type MachineModel = machines.Model

// MachineMatrix returns the full curated matrix in canonical report order.
func MachineMatrix() []MachineModel { return machines.Matrix() }

// MachineByName returns one model of the matrix by its stable name.
func MachineByName(name string) (MachineModel, error) { return machines.ByName(name) }

// Observability layer (see internal/obs). Profile is the per-function
// attribution of one traced path invocation — set Config.Profile (or use
// RunVersionsProfiled) to collect one per sample. PhaseSplit decomposes a
// roundtrip into the §4.3 phases. Document, Manifest, Table and Figure are
// the deterministic JSON export schema behind `protolat -json`.
type (
	Profile    = obs.Profile
	FuncStats  = obs.FuncStats
	PhaseSplit = obs.PhaseSplit
	Document   = obs.Document
	Manifest   = obs.Manifest
	Table      = obs.Table
	Figure     = obs.Figure
	RunExport  = obs.Run
)

// RunVersionsProfiled is RunVersions with per-function attribution
// enabled; each result's samples carry a Profile. Profiling is
// observation-only: every other measured number is byte-identical to an
// unprofiled run (a tested invariant).
func RunVersionsProfiled(kind StackKind, q Quality) (map[Version]*Result, error) {
	return core.RunVersionsProfiled(kind, q)
}

// NewManifest builds a document manifest. command should carry only
// semantic flags (not -parallel or -json, which cannot change output).
func NewManifest(command string, seed uint64, q Quality) Manifest {
	return core.NewManifest(command, seed, q)
}

// RecoveryKind selects the transport retransmission-timer policy: "fixed"
// (the historical 200 ms doubling RTO / 100 ms CHAN timer) or "adaptive"
// (Jacobson/Karn RTT estimation with backoff and clamps, plus TCP dup-ACK
// fast retransmit). Set Config.Recovery to run any experiment under it; on
// fault-free runs every policy is cycle-identical.
type RecoveryKind = recovery.Kind

// The available recovery policies.
const (
	RecoveryFixed    = recovery.Fixed
	RecoveryAdaptive = recovery.Adaptive
)

// RecoveryCell is one (policy, rate) point of the recovery comparison:
// clean and degraded tail latencies under pure Bernoulli loss.
type RecoveryCell = core.RecoveryCell

// RecoveryComparison measures fixed vs adaptive recovery on the ALL layout
// under Bernoulli loss, sharing per-rate plan seeds across policies so the
// comparison isolates the timer. Deterministic at any parallelism.
func RecoveryComparison(kind StackKind, seed uint64, q Quality) ([]RecoveryCell, error) {
	return core.RecoveryComparison(kind, seed, q)
}

// RenderRecoveryTable renders comparison cells as text; RunRoundtrips is
// the per-roundtrip measurement primitive beneath the comparison and the
// soak harness.
var (
	RenderRecoveryTable = core.RenderRecoveryTable
	RunRoundtrips       = core.RunRoundtrips
)

// Soak harness (see internal/soak): long-running roundtrip batches across
// fault regimes × recovery policies × layout versions, with streaming tail
// digests, continuous invariant checks, and journal-based resumability.
type (
	SoakConfig       = soak.Config
	SoakRegime       = soak.Regime
	SoakResult       = soak.Result
	SoakCell         = soak.Cell
	SoakChecks       = soak.Checks
	SoakJournalError = soak.JournalError
)

// DefaultSoak returns the standard soak shape: the clean/loss/burst/storm
// regime schedule over STD and ALL layouts with both recovery policies.
func DefaultSoak(kind StackKind, seed uint64) SoakConfig {
	return soak.DefaultConfig(kind, seed)
}

// Soak runs a fresh soak; ResumeSoak continues one from the journal at
// cfg.CheckpointPath (every journal failure is a typed *SoakJournalError).
// A resumed soak's document is byte-identical to an uninterrupted run's, at
// any parallelism.
func Soak(cfg SoakConfig) (*SoakResult, error) { return soak.Run(cfg) }

// ResumeSoak continues a checkpointed soak to completion.
func ResumeSoak(cfg SoakConfig) (*SoakResult, error) { return soak.Resume(cfg) }

// SoakCtx and ResumeSoakCtx are the cancellable forms: ctx is consulted at
// chunk boundaries, so a cancelled soak keeps its journal at the last
// completed chunk and resumes to a byte-identical result.
func SoakCtx(ctx context.Context, cfg SoakConfig) (*SoakResult, error) {
	return soak.RunCtx(ctx, cfg)
}

// ResumeSoakCtx continues a checkpointed soak under cooperative
// cancellation.
func ResumeSoakCtx(ctx context.Context, cfg SoakConfig) (*SoakResult, error) {
	return soak.ResumeCtx(ctx, cfg)
}

// SoakReport renders a soak result as text.
var SoakReport = soak.Report

// VerifyUnitStats re-checks the frame-conservation and injector
// reconciliation invariants from one soak unit's recorded stats.
var VerifyUnitStats = soak.VerifyUnitStats

// Experiment daemon (see internal/serve): `protolat -serve` exposes the
// whole apparatus as a persistent HTTP/JSON service with a bounded
// journaled job queue, fingerprint-keyed result memoization and request
// coalescing, per-job watchdogs, graceful drain on SIGTERM, and crash
// recovery that replays admitted jobs and resumes interrupted soaks from
// their chunk checkpoints.
type (
	// ServeConfig shapes a daemon (address, store directory, queue bound,
	// drain timeout).
	ServeConfig = serve.Config
	// ServeServer is a running daemon; drive it with ListenAndServe or
	// embed its Handler.
	ServeServer = serve.Server
	// ServeSpec is one experiment request (the POST /v1/experiments body,
	// or the study protolat's flags select).
	ServeSpec = serve.Spec
	// ServeSpecError reports an invalid spec field.
	ServeSpecError = serve.SpecError
	// ServeStats is the daemon-health section of a stats document.
	ServeStats = obs.ServeStatsDoc
)

// Study is one computed study: its document and its text report.
// StudyExec carries the execution details a spec's fingerprint leaves out
// (event budget, soak checkpoint journal and stop point).
type (
	Study     = serve.Study
	StudyExec = serve.Exec
)

// ComputeStudy runs the study a spec describes, as the daemon does for a
// submission and protolat does for its flags; the document records
// gitDescribe as the checkout identity.
func ComputeStudy(ctx context.Context, spec ServeSpec, gitDescribe string, x StudyExec) (*Study, error) {
	return serve.Compute(ctx, spec, gitDescribe, x)
}

// NewServer opens the daemon's store, replays the journaled job queue
// (crash recovery), and starts its workers.
func NewServer(cfg ServeConfig) (*ServeServer, error) { return serve.New(cfg) }

// SubmitOptions and SubmitResult shape a client-side submission to a
// running daemon (`protolat -submit`): how many 429/503 rejections to
// retry with the server's Retry-After hint, and the returned document plus
// its cache/fingerprint identity headers.
type (
	SubmitOptions = serve.SubmitOptions
	SubmitResult  = serve.SubmitResult
)

// SubmitSpec posts a spec to a daemon's /v1/experiments endpoint,
// retrying 429/503 rejections per opts with capped deterministic
// exponential backoff.
func SubmitSpec(addr string, spec []byte, opts SubmitOptions) (*SubmitResult, error) {
	return serve.Submit(addr, spec, opts)
}

// StorageFS is the injectable filesystem beneath every durable write
// (journals, the daemon store); StorageFromEnv parses a PROTOLAT_FSFAULT
// fault spec ("enospc=<glob>,crash-at=<n>,seed=<n>,...") into one, for
// black-box storage-fault testing of the real binary. An empty spec
// returns the real disk.
type StorageFS = storage.FS

// StorageFromEnv builds the fault-injecting FS a PROTOLAT_FSFAULT spec
// describes (nil error and real disk for an empty spec).
func StorageFromEnv(spec string) (StorageFS, error) { return storage.FromEnv(spec) }

// StorageDisk is the real-disk StorageFS. All durable writes outside
// internal/storage must go through a StorageFS (the fsseam protovet
// analyzer enforces it), so command-line code writes artifacts through
// this instance rather than calling the os package directly.
var StorageDisk = storage.Disk
