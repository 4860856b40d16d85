package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"
)

// pinDescribe is the fixed checkout identity the pinned fingerprints are
// computed under.
const pinDescribe = "pin-checkout"

// TestPinnedFingerprints pins the literal fingerprint of one spec per kind.
// Each spec carries fields its kind ignores and spellings Normalized
// canonicalizes, so a change to canonicalization — not only to hashing —
// moves a fingerprint and fails here. Memoized documents in every
// existing store are keyed by these values.
func TestPinnedFingerprints(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "run", Version: "std", Samples: 2, Policy: "Adaptive", Seed: 9, Top: 4, Budget: 7}, "7f2515c6e16a1571"},
		{Spec{Kind: "Table", Table: 7, Quality: "PAPER", Version: "CLO", Rates: "0.1"}, "a30d22bb43c98fe2"},
		{Spec{Kind: "faults", Seed: 7, Rates: "0, 0.05", Samples: 5, Models: "modern"}, "b95e1d34b7e572c2"},
		{Spec{Kind: "soak", Seed: 3, SoakBatches: 2, SoakRoundtrips: 8, Rates: "0.1", Policy: "fixed"}, "33a4591994d7a44b"},
		{Spec{Kind: "lint", Stack: " RPC ", Quality: "paper", Seed: 4, Table: 2}, "637a8ee4fad39ce3"},
		{Spec{Kind: "profile", Top: 5, Seed: 6, TimeoutMS: 1000}, "2efafb55755f715b"},
		{Spec{Kind: "machines", Models: "Dec3000, modern", Rates: "0,0.05", Seed: 11, Budget: 3}, "ab42ab55fb50c705"},
		{Spec{Kind: "optimize", Models: "dec3000", Budget: 150, Seed: 2, Rates: "0.05", Top: 3}, "53f498b53c50adb6"},
	}
	for _, tc := range cases {
		if err := tc.spec.Normalized().Validate(); err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if got := tc.spec.Fingerprint(pinDescribe); got != tc.want {
			t.Errorf("%s fingerprint = %q, want %q", tc.spec.Kind, got, tc.want)
		}
	}
}

// TestPinnedDocuments pins the sha256 of the document the daemon computes
// for one cheap spec per kind, so a refactor of how a kind becomes a
// document cannot change a byte of it unnoticed.
func TestPinnedDocuments(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{`{"kind":"lint"}`, "d7455ec1e425669ef1da33151785d0537cd2b1c3598c200ee93d15377dfdbdf1"},
		{`{"kind":"run","version":"STD","samples":1}`, "0f7da83c3f0371b586cc60a037f10771bebf37985824c20d71da5cc258d5e390"},
		{`{"kind":"table","table":1}`, "e2b038b695d1fcd6ddaa47ac60f27f671e5c388b5e1d1dfe20cae89443828fa2"},
		{`{"kind":"faults","rates":"0.05"}`, "0988479cdda33481881ae6bf6c6e916f4a137dd2065160b604de35107d67b75a"},
		{`{"kind":"soak","seed":5,"soak_batches":1,"soak_roundtrips":4}`, "ddfea7e372ff2234d8aa407c4863daac68893435006d9dc938cb5afdbba30bd5"},
		{`{"kind":"profile"}`, "f168a9478397aefa59fbe7aba377319d9983acd131810a383b24be067ba6448e"},
		{`{"kind":"machines","models":"dec3000"}`, "08125991ebca6c77b5edf59cb4d8a24ac714e72b4ce3509b8ab3165ca71a387f"},
		{`{"kind":"optimize","models":"dec3000","budget":40}`, "e39ed61876b0a99c1ecd9132aa0ff5d027b692f5346f2ab17b09f720847efa86"},
	}
	_, ts := newTestServer(t, Config{GitDescribe: pinDescribe})
	for _, tc := range cases {
		resp, body := post(t, ts, tc.spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", tc.spec, resp.Status, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s document sha256 = %q, want %q", tc.spec, got, tc.want)
		}
	}
}
