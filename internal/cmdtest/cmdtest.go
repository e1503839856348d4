// Package cmdtest builds and runs a main package end to end, so every
// binary under cmd/ and examples/ gets an exit-0 smoke test instead of
// `[no test files]`. Tests call Run from the package's own directory (the
// test working directory), which builds "." into a temporary binary and
// executes it.
package cmdtest

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// built caches one binary per package directory for the life of the test
// process: a rejection loop links its binary once, not once per case.
var (
	builtMu sync.Mutex
	built   = map[string]string{} // dir -> binary path
)

// Build compiles the main package at dir (relative to the test's working
// directory; "." for the package under test, "../other" for a sibling
// binary in a multi-process test) into a temporary binary and returns its
// path. Skips in -short mode or without a toolchain.
func Build(t *testing.T, dir string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke test skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	builtMu.Lock()
	defer builtMu.Unlock()
	if bin, ok := built[dir]; ok {
		return bin
	}
	// Not t.TempDir: the binary outlives the test that first asks for it.
	tmp, err := os.MkdirTemp("", "cmdtest-")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(tmp, filepath.Base(dir)+".bin")
	if dir == "." {
		bin = filepath.Join(tmp, "smoke.bin")
	}
	if out, err := exec.Command(goBin, "build", "-o", bin, dir).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", dir, err, out)
	}
	built[dir] = bin
	return bin
}

// Run builds the main package in the current directory and executes it with
// the given environment additions and arguments, failing the test on a
// non-zero exit. It returns combined stdout+stderr.
func Run(t *testing.T, env []string, args ...string) string {
	t.Helper()
	bin := Build(t, ".")
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

// RunErr is Run for invocations that must FAIL: it asserts the binary exits
// with the given non-zero code (validation and usage errors) and returns
// combined stdout+stderr.
func RunErr(t *testing.T, wantExit int, env []string, args ...string) string {
	t.Helper()
	bin := Build(t, ".")
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("%s %v: expected exit %d, got err=%v\n%s", bin, args, wantExit, err, out)
	}
	if exit.ExitCode() != wantExit {
		t.Fatalf("%s %v: exit %d, want %d\n%s", bin, args, exit.ExitCode(), wantExit, out)
	}
	return string(out)
}
