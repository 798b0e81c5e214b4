package loadcli

import (
	"bytes"
	"strings"
	"testing"
)

// A short smoke replay against the in-process daemon is clean: exit 0
// and every response classified.
func TestRunInProcessSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Run([]string{"-n", "12", "-mix", "smoke", "-seed", "1", "-out", ""}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("Run = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "mix smoke seed 1: 12 requests") {
		t.Fatalf("summary does not report the 12-request smoke replay:\n%s", &stdout)
	}
	if !strings.Contains(stdout.String(), "unclassified: 0\n") {
		t.Fatalf("replay saw unclassified responses:\n%s", &stdout)
	}
}

// An unknown mix is a usage error.
func TestRunUnknownMixIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Run([]string{"-mix", "nope", "-out", ""}, &stdout, &stderr); code != 2 {
		t.Fatalf("Run(-mix nope) = %d, want 2\nstderr:\n%s", code, &stderr)
	}
}
