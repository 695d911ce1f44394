package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// qoesim runs the real entry point in a child process (see TestMain) and
// fails the test on a nonzero exit.
func qoesim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QOESIM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("qoesim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestTraceIndependentOfParallel pins the one-tracer-per-cell contract: -trace
// writes one combined file whose bytes, like stdout, do not depend on the
// worker count, and -exemplars composes with the trace analysis flags.
func TestTraceIndependentOfParallel(t *testing.T) {
	dir := t.TempDir()
	run := []string{"-run", "fig6", "-trials", "2"}
	seqPath, parPath := filepath.Join(dir, "seq.json"), filepath.Join(dir, "par.json")
	seqOut := qoesim(t, append(run, "-parallel", "1", "-trace", seqPath)...)
	parOut := qoesim(t, append(run, "-parallel", "4", "-trace", parPath)...)
	seq, err := os.ReadFile(seqPath)
	if err != nil {
		t.Fatal(err)
	}
	par, err := os.ReadFile(parPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 || !bytes.Equal(seq, par) {
		t.Errorf("-trace at -parallel 4 differs from -parallel 1 (%d vs %d bytes)", len(par), len(seq))
	}
	if !bytes.Equal(seqOut, parOut) {
		t.Errorf("stdout differs across -parallel:\n%s\nvs\n%s", seqOut, parOut)
	}

	qoesim(t, append(run, "-parallel", "2", "-checktrace", "-exemplars", "1",
		"-exemplar-out", filepath.Join(dir, "ex.json"))...)
	if m, _ := filepath.Glob(filepath.Join(dir, "ex.exemplar.*.json")); len(m) != 1 {
		t.Errorf("-exemplars 1 wrote %d exemplar files, want 1", len(m))
	}
}
