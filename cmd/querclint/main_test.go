package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunStandalone drives the command end to end over a throwaway module:
// a finding in a library file and one in a test file are each printed
// exactly once (the package and its test variant share the library file)
// and fail the run; the cleaned module passes.
func TestRunStandalone(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const tickLoop = "\tfor range time.Tick(time.Second) {\n\t}\n"
	write("go.mod", "module seeded\n\ngo 1.24\n")
	write("seeded.go", "// Package seeded is a planted-finding module.\npackage seeded\n\nimport \"time\"\n\nfunc Poll() {\n"+tickLoop+"}\n")
	write("seeded_test.go", "package seeded\n\nimport (\n\t\"testing\"\n\t\"time\"\n)\n\nfunc TestPoll(t *testing.T) {\n"+tickLoop+"}\n")
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("seeded module: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want one per file:\n%s", len(lines), &stdout)
	}
	for i, file := range []string{"seeded.go:7:", "seeded_test.go:9:"} {
		if !strings.Contains(lines[i], file) || !strings.Contains(lines[i], "leaksafe: time.Tick leaks its ticker") {
			t.Errorf("finding %d = %q, want the time.Tick finding at %s", i, lines[i], file)
		}
	}

	write("seeded.go", "// Package seeded is a planted-finding module.\npackage seeded\n\nfunc Poll() {}\n")
	write("seeded_test.go", "package seeded\n\nimport \"testing\"\n\nfunc TestPoll(t *testing.T) { Poll() }\n")
	stdout.Reset()
	stderr.Reset()
	if code := run(nil, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Fatalf("clean module: exit %d, want 0 and no output\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}
