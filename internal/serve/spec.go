// Package serve implements the protolat experiment daemon: a persistent
// HTTP/JSON service that accepts experiment specs (single runs, tables,
// fault studies, soaks, lints, profiles), validates and fingerprints them,
// schedules them on the shared worker pool through a bounded journaled job
// queue, and memoizes completed documents in a crash-safe on-disk store
// built on the soak journal's tmp+rename+CRC32 discipline.
//
// Robustness properties, in the order a request meets them:
//
//   - Admission control: the job queue is bounded; a full queue rejects
//     with 429 and a deterministic backoff hint, a draining daemon with
//     503. A memoized result is served even while draining or full — the
//     cheapest path stays open the longest.
//   - Coalescing: concurrent submissions of an identical spec (same
//     fingerprint) attach to the one queued execution instead of running
//     it again.
//   - Crash safety: admitted jobs are journaled before execution and
//     results are persisted before the response is sent, both atomically.
//     After a kill -9 the daemon replays the journaled queue on startup,
//     resumes interrupted soaks from their chunk checkpoint, and serves
//     re-requests byte-identically from the store.
//   - Watchdogs: every job runs under the per-sample event-budget
//     watchdog (422 on exhaustion) and an optional deadline (504), and is
//     cancelled cooperatively when the daemon drains past its timeout.
//   - Graceful degradation: a result whose store write fails is still
//     served (flagged degraded); a tampered store or journal surfaces as
//     a typed 500 naming the corruption instead of a wrong answer.
//
// Everything the daemon computes inherits the library's determinism:
// identical specs on an identical checkout produce byte-identical
// documents, which is what makes fingerprint-keyed memoization sound.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Spec is one experiment request, from the daemon's POST body or from
// protolat's flags. Kind selects the study; the remaining fields
// parameterize it and are canonicalized by Normalized so that
// semantically identical requests fingerprint — and therefore memoize and
// coalesce — identically.
type Spec struct {
	// Kind is the experiment mode: "run", "table", "faults", "soak",
	// "lint", "profile", "machines", or "optimize".
	Kind string `json:"kind"`
	// Stack selects the protocol stack: "tcpip" (default) or "rpc".
	Stack string `json:"stack,omitempty"`
	// Version is the layout configuration for "run" (default "ALL").
	Version string `json:"version,omitempty"`
	// Quality is the measurement effort: "quick" (default) or "paper".
	Quality string `json:"quality,omitempty"`
	// Samples is the sample count for "run" (default 3).
	Samples int `json:"samples,omitempty"`
	// Policy is the recovery policy for "run": "fixed" (default) or
	// "adaptive".
	Policy string `json:"policy,omitempty"`
	// Classifier charges the packet-classifier cost on PIN/ALL for "run".
	Classifier bool `json:"classifier,omitempty"`
	// Table selects the table (1..9) for "table".
	Table int `json:"table,omitempty"`
	// Seed drives the fault plans of "faults" and "soak" (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Rates is the comma-separated fault-rate list for "faults" (empty
	// keeps the study default).
	Rates string `json:"rates,omitempty"`
	// Top is the per-version function count for "profile" (default 10).
	Top int `json:"top,omitempty"`
	// SoakBatches and SoakRoundtrips override the soak batch shape
	// (0 keeps the quality default).
	SoakBatches    int `json:"soak_batches,omitempty"`
	SoakRoundtrips int `json:"soak_roundtrips,omitempty"`
	// Models is the machine-model selection for "machines" and
	// "optimize": "all" (default) or a comma-separated list of matrix
	// names. The machines land in the canonical spec, so two selections
	// that sweep different hardware fingerprint — and memoize —
	// separately.
	Models string `json:"models,omitempty"`
	// Budget is the annealing steps per machine for "optimize" (0 keeps
	// the search default).
	Budget int `json:"budget,omitempty"`
	// TimeoutMS bounds the job's execution (0 = the daemon default). A
	// deadline is an execution detail, not a semantic input, so it is
	// excluded from the fingerprint.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SpecError reports an invalid spec field; the daemon maps it to a 400.
type SpecError struct {
	Field string
	Msg   string
}

// Error renders the failure with its field.
func (e *SpecError) Error() string { return fmt.Sprintf("spec field %q: %s", e.Field, e.Msg) }

// Normalized canonicalizes the spec: case folded, defaults filled, and
// only the fields the kind reads kept (see the kinds registry), so two
// requests that would compute the same document carry the same bytes into
// Fingerprint. Stack, quality and timeout are common to every kind.
func (s Spec) Normalized() Spec {
	c := Spec{
		Kind:      lowerTrim(s.Kind),
		Stack:     orDefault(lowerTrim(s.Stack), "tcpip"),
		Quality:   orDefault(lowerTrim(s.Quality), "quick"),
		TimeoutMS: max(s.TimeoutMS, 0),
	}
	if k, ok := kinds[c.Kind]; ok {
		k.keep(&c, s)
	}
	return c
}

// Validate checks a normalized spec, returning a *SpecError naming the
// first offending field.
func (s Spec) Validate() error {
	k, ok := kinds[s.Kind]
	switch {
	case s.Kind == "":
		return &SpecError{Field: "kind", Msg: "required (" + kindNames + ")"}
	case !ok:
		return &SpecError{Field: "kind", Msg: fmt.Sprintf("unknown kind %q (want %s)", s.Kind, kindNames)}
	}
	if _, _, err := s.StackQuality(); err != nil {
		return err
	}
	if k.check == nil {
		return nil
	}
	return k.check(s)
}

// StackQuality resolves a normalized spec's stack and quality preset, or
// returns the *SpecError naming the bad one. Validate applies it to every
// kind; the CLI's text-only modes use it alone.
func (s Spec) StackQuality() (core.StackKind, core.Quality, error) {
	var kind core.StackKind
	switch s.Stack {
	case "tcpip":
		kind = core.StackTCPIP
	case "rpc":
		kind = core.StackRPC
	default:
		return 0, core.Quality{}, &SpecError{Field: "stack", Msg: fmt.Sprintf("unknown stack %q (want tcpip or rpc)", s.Stack)}
	}
	switch s.Quality {
	case "quick":
		return kind, core.Quick, nil
	case "paper":
		return kind, core.PaperQuality, nil
	}
	return 0, core.Quality{}, &SpecError{Field: "quality", Msg: fmt.Sprintf("unknown quality %q (want quick or paper)", s.Quality)}
}

// Fingerprint identifies the document this spec computes: a hash of the
// canonical spec (minus execution details) and the checkout identity.
// Equal fingerprints are the daemon's license to memoize and coalesce.
func (s Spec) Fingerprint(gitDescribe string) string {
	c := s.Normalized()
	c.TimeoutMS = 0
	b, err := json.Marshal(c)
	if err != nil {
		// A Spec of plain scalars cannot fail to marshal; guard anyway.
		b = []byte(fmt.Sprintf("%+v", c))
	}
	h := sha256.Sum256(append(b, []byte("|"+gitDescribe)...))
	return hex.EncodeToString(h[:8])
}

// version resolves the spec's Version name.
func (s Spec) version() (core.Version, error) {
	for _, v := range core.Versions() {
		if strings.EqualFold(v.String(), s.Version) {
			return v, nil
		}
	}
	return 0, &SpecError{Field: "version", Msg: fmt.Sprintf("unknown version %q", s.Version)}
}

// lowerTrim folds a name field's case and surrounding space.
func lowerTrim(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// orDefault returns v, or def when v is the zero value.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// parseRates parses a comma-separated fault-rate list.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		var r float64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &r); err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad fault rate %q (want 0..1)", part)
		}
		out = append(out, r)
	}
	return out, nil
}
