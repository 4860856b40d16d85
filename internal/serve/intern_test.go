package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
)

// internChild switches TestInternOrderNeverReachesOutput into its child
// role: the value is a file of "name<TAB>sym" lines, one per name the
// parent process interned, with the Sym the parent gave it.
var internChild = flag.String("intern-child", "", "test-only: run the intern-order child with this name file")

// internDigestPrefix marks the child's result lines on its standard output.
const internDigestPrefix = "intern-digest "

// internSpecs are the documents compared: the twelve dec3000 Table-4 run
// documents and one layout search.
func internSpecs() []Spec {
	var out []Spec
	for _, stack := range []string{"tcpip", "rpc"} {
		for _, v := range core.Versions() {
			out = append(out, Spec{Kind: "run", Stack: stack, Version: v.String()})
		}
	}
	return append(out, Spec{Kind: "optimize", Models: "dec3000", Budget: 40})
}

// internDigests computes every spec's document and returns one
// "kind/stack/version sha256" line each.
func internDigests(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, spec := range internSpecs() {
		st, err := Compute(context.Background(), spec, pinDescribe, Exec{})
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		b, err := st.Doc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out = append(out, fmt.Sprintf("%s/%s/%s %s", spec.Kind, spec.Stack, spec.Version, hex.EncodeToString(sum[:])))
	}
	return out
}

// TestInternOrderNeverReachesOutput is the metamorphic check that interned
// Sym IDs never reach a document. Sym values depend on the order names are
// first interned; the test re-runs its own binary as a child that interns
// every name the parent saw in reverse-sorted order before building
// anything, so most names get different IDs, and requires every document
// to hash the same in both processes.
func TestInternOrderNeverReachesOutput(t *testing.T) {
	if *internChild != "" {
		runInternChild(t, *internChild)
		return
	}
	want := internDigests(t)

	var names bytes.Buffer
	for i := 1; i < code.SymCount(); i++ {
		fmt.Fprintf(&names, "%s\t%d\n", code.Sym(i), i)
	}
	file := filepath.Join(t.TempDir(), "names")
	if err := os.WriteFile(file, names.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestInternOrderNeverReachesOutput$", "-intern-child="+file)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var got []string
	moved := -1
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), internDigestPrefix)
		if !ok {
			continue
		}
		if n, ok := strings.CutPrefix(line, "moved "); ok {
			moved, _ = strconv.Atoi(n)
			continue
		}
		got = append(got, line)
	}
	if moved < len(internSpecs()) {
		t.Fatalf("child moved the IDs of %d names; the check needs permuted IDs\n%s", moved, out)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("documents depend on interning order:\nparent %q\nchild  %q", want, got)
	}
}

// runInternChild interns the parent's names in reverse-sorted order,
// reports how many got a different Sym than in the parent, and prints the
// document digests.
func runInternChild(t *testing.T, file string) {
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	parentSym := map[string]code.Sym{}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		name, id, _ := strings.Cut(line, "\t")
		n, err := strconv.Atoi(id)
		if err != nil {
			t.Fatalf("bad name line %q", line)
		}
		parentSym[name] = code.Sym(n)
		names = append(names, name)
	}
	slices.Sort(names)
	slices.Reverse(names)
	for _, n := range names {
		code.Intern(n)
	}
	moved := 0
	for _, n := range names {
		if code.Intern(n) != parentSym[n] {
			moved++
		}
	}
	fmt.Printf("%smoved %d\n", internDigestPrefix, moved)
	for _, d := range internDigests(t) {
		fmt.Println(internDigestPrefix + d)
	}
}
