package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// flagSpec parses a command line and returns the normalized spec it
// selects.
func flagSpec(t *testing.T, args ...string) repro.ServeSpec {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return o.spec().Normalized()
}

// specErrorField returns the field a *SpecError names, or "" for any
// other error.
func specErrorField(err error) string {
	var se *repro.ServeSpecError
	if errors.As(err, &se) {
		return se.Field
	}
	return ""
}

// TestModePrecedence: the study a command line selects follows the CLI's
// mode precedence, and the CLI-only modes select none.
func TestModePrecedence(t *testing.T) {
	cases := []struct {
		args []string
		kind string
	}{
		{nil, ""},
		{[]string{"-soak", "-faults", "-lint"}, "soak"},
		{[]string{"-optimize", "dec3000", "-lint"}, "optimize"},
		{[]string{"-lint", "-profile"}, "lint"},
		{[]string{"-profile", "-faults"}, "profile"},
		{[]string{"-faults", "-machines", "all"}, "faults"},
		{[]string{"-machines", "all", "-stack", "rpc"}, "machines"},
		{[]string{"-machines", "list", "-stack", "rpc"}, ""},
		{[]string{"-throughput", "-stack", "rpc"}, ""},
		{[]string{"-sensitivity", "cache", "-table", "4"}, ""},
		{[]string{"-stack", "rpc", "-table", "4"}, "run"},
		{[]string{"-figure", "1", "-table", "4"}, ""},
		{[]string{"-table", "4"}, "table"},
	}
	for _, tc := range cases {
		if got := flagSpec(t, tc.args...).Kind; got != tc.kind {
			t.Errorf("%q selects kind %q, want %q", tc.args, got, tc.kind)
		}
	}
}

// TestClassifierIsSpecField: -classifier changes a run's result, so it is
// a spec field of the run kind (TestDocumentEqualsDaemon checks that the
// manifest command records it).
func TestClassifierIsSpecField(t *testing.T) {
	plain := flagSpec(t, "-stack", "tcpip", "-version", "PIN")
	classified := flagSpec(t, "-stack", "tcpip", "-version", "PIN", "-classifier")
	if !classified.Classifier || plain.Classifier {
		t.Fatalf("classifier field: plain %v, classified %v", plain.Classifier, classified.Classifier)
	}
	if plain.Fingerprint("v1") == classified.Fingerprint("v1") {
		t.Fatal("-classifier does not change the fingerprint")
	}
	if got := flagSpec(t, "-lint", "-classifier"); got.Classifier {
		t.Fatal("-classifier reached a kind that does not read it")
	}
}

// TestBadValuesAreSpecErrors: a bad -stack or -quality is rejected with
// the daemon's SpecError in every mode, study or CLI-only.
func TestBadValuesAreSpecErrors(t *testing.T) {
	cases := []struct {
		args  []string
		field string
	}{
		{[]string{"-stack", "foo"}, "stack"},
		{[]string{"-quality", "bogus"}, "quality"},
		{[]string{"-faults", "-quality", "bogus"}, "quality"},
		{[]string{"-throughput", "-stack", "osi"}, "stack"},
		{[]string{"-table", "12"}, "table"},
		{[]string{"-stack", "tcpip", "-version", "NOPE"}, "version"},
		{[]string{"-faults", "-rates", "0,2"}, "rates"},
	}
	for _, tc := range cases {
		spec := flagSpec(t, tc.args...)
		_, _, err := spec.StackQuality()
		if err == nil && spec.Kind != "" {
			err = spec.Validate()
		}
		if got := specErrorField(err); got != tc.field {
			t.Errorf("%q: error %v, want a SpecError on %q", tc.args, err, tc.field)
		}
	}
}

// TestFlagsMatchDaemonSpec: spellings the daemon canonicalizes give the
// daemon's canonical spec, and therefore its fingerprint and document.
func TestFlagsMatchDaemonSpec(t *testing.T) {
	cases := []struct {
		args   []string
		daemon repro.ServeSpec
	}{
		{[]string{"-machines", "Dec3000, modern"}, repro.ServeSpec{Kind: "machines", Models: "dec3000,modern"}},
		{[]string{"-faults", "-rates", "0, 0.05"}, repro.ServeSpec{Kind: "faults", Rates: "0,0.05"}},
		{[]string{"-lint", "-quality", "paper"}, repro.ServeSpec{Kind: "lint"}},
		{[]string{"-optimize", "all"}, repro.ServeSpec{Kind: "optimize"}},
		{[]string{"-soak", "-rates", "0.1", "-top", "3"}, repro.ServeSpec{Kind: "soak"}},
	}
	for _, tc := range cases {
		got, want := flagSpec(t, tc.args...), tc.daemon.Normalized()
		if got != want {
			t.Errorf("%q maps to %+v, want the daemon's %+v", tc.args, got, want)
		}
	}
}

// TestDocumentEqualsDaemon: for one cheap spec of every kind, the document
// protolat exports for its flags records the semantic command and is
// byte-identical to the one the daemon serves for the equivalent
// submission.
func TestDocumentEqualsDaemon(t *testing.T) {
	const describe = "cli-test"
	srv, err := repro.NewServer(repro.ServeConfig{StoreDir: t.TempDir(), GitDescribe: describe})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	cases := []struct {
		args            []string
		daemon, command string
	}{
		{[]string{"-lint", "-quality", "paper"}, `{"kind":"lint"}`,
			"protolat -lint -stack tcpip"},
		{[]string{"-stack", "tcpip", "-version", "pin", "-samples", "1", "-classifier"}, `{"kind":"run","version":"PIN","samples":1,"classifier":true}`,
			"protolat -stack tcpip -version PIN -samples 1 -classifier"},
		{[]string{"-table", "1"}, `{"kind":"table","table":1}`,
			"protolat -table 1 -quality quick"},
		{[]string{"-faults", "-rates", "0, 0.05"}, `{"kind":"faults","rates":"0,0.05"}`,
			"protolat -faults -stack tcpip -seed 1 -rates 0,0.05 -quality quick"},
		{[]string{"-soak", "-seed", "4"}, `{"kind":"soak","seed":4}`,
			"protolat -soak -stack tcpip -seed 4 -quality quick"},
		{[]string{"-profile", "-top", "3"}, `{"kind":"profile","top":3}`,
			"protolat -profile -stack tcpip -top 3 -quality quick"},
		{[]string{"-machines", "Dec3000"}, `{"kind":"machines","models":"dec3000"}`,
			"protolat -machines dec3000 -stack tcpip -seed 1 -rates  -quality quick"},
		{[]string{"-optimize", "dec3000", "-budget", "40"}, `{"kind":"optimize","models":"dec3000","budget":40}`,
			"protolat -optimize dec3000 -stack tcpip -seed 1 -budget 40 -candidates 3 -quality quick"},
	}
	for _, tc := range cases {
		st, err := repro.ComputeStudy(context.Background(), flagSpec(t, tc.args...), describe, repro.StudyExec{})
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if st.Doc.Manifest.Command != tc.command {
			t.Errorf("%q records command %q, want %q", tc.args, st.Doc.Manifest.Command, tc.command)
		}
		cli, err := st.Doc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(tc.daemon))
		if err != nil {
			t.Fatal(err)
		}
		daemon, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s %v: %s", tc.daemon, resp.Status, err, daemon)
		}
		if !bytes.Equal(cli, daemon) {
			t.Errorf("%q exports a document that differs from the daemon's for %s", tc.args, tc.daemon)
		}
	}
}
