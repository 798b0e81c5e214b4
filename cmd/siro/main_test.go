package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/service"
	"repro/internal/version"
)

// asMainEnv makes the test binary run siro's main instead of the
// tests, so each case drives the real flag parsing and exit codes in a
// child process without building a separate binary.
const asMainEnv = "SIRO_CMD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSiro runs siro with args and stdin, returning stdout, stderr and
// the exit code.
func runSiro(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("siro %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// A one-shot run synthesizes the pair into -cache; the rerun loads the
// persisted artifact from disk instead of synthesizing again.
func TestOneShotCacheReuse(t *testing.T) {
	dir := t.TempDir()
	for _, want := range []string{"[synth]", "[disk]"} {
		out, errOut, code := runSiro(t, "", "-src", "12.0", "-tgt", "3.6", "-cache", dir)
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, errOut)
		}
		if !strings.Contains(out, "12.0->3.6") || !strings.Contains(out, want) {
			t.Fatalf("output lacks the pair row marked %s:\n%s", want, out)
		}
	}
}

// genText renders a generated 12-function module as 12.0 text.
func genText(t *testing.T) string {
	t.Helper()
	m := irgen.Generate(irgen.Config{Seed: 7, Ver: version.V12_0, Funcs: 12, Blocks: 5})
	text, err := irtext.NewWriter(version.V12_0).WriteModule(m)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// -in with an explicit -src streams, and the output is byte-identical
// to the batch pipeline's translation of the same input.
func TestStreamMatchesBatch(t *testing.T) {
	text := genText(t)
	svc := service.New(service.Config{})
	defer svc.Close()
	want, _, _, err := svc.TranslateText(context.Background(), text, version.V12_0, version.V3_6)
	if err != nil {
		t.Fatalf("batch translation: %v", err)
	}

	outFile := filepath.Join(t.TempDir(), "out.ll")
	_, errOut, code := runSiro(t, text, "-in", "-", "-src", "12.0", "-tgt", "3.6", "-out", outFile)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, errOut)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("streamed output differs from batch\nbatch:\n%s\nstream:\n%s", want, got)
	}
}

// -src auto detects the version, names it on stderr, and prints what
// the service's detect-then-translate pipeline returns.
func TestInAutoDetect(t *testing.T) {
	text := genText(t)
	svc := service.New(service.Config{})
	defer svc.Close()
	want, detected, _, err := svc.TranslateText(context.Background(), text, version.V{}, version.V3_6)
	if err != nil {
		t.Fatalf("batch translation: %v", err)
	}

	in := filepath.Join(t.TempDir(), "in.ll")
	if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runSiro(t, "", "-in", in, "-src", "auto", "-tgt", "3.6")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, errOut)
	}
	if out != want {
		t.Fatalf("-src auto output differs from TranslateText\nwant:\n%s\ngot:\n%s", want, out)
	}
	if line := "detected source version " + detected.String(); !strings.Contains(errOut, line) {
		t.Fatalf("stderr does not name the detected version (%q):\n%s", line, errOut)
	}
}

// A translation that fails partway leaves nothing at -out: no truncated
// file, and no temporary file beside it.
func TestFailedTranslationLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "out.ll")
	_, errOut, code := runSiro(t, genText(t)+"\nthis is not IR\n", "-in", "-", "-src", "12.0", "-tgt", "3.6", "-out", outFile)
	if code != 3 {
		t.Fatalf("exit %d, want 3 (parse)\n%s", code, errOut)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed translation left %s behind", e.Name())
	}
}

// -save writes one pair's artifact, so with -all every pair would
// overwrite the last: a usage error, and nothing is written.
func TestAllWithSaveIsUsageError(t *testing.T) {
	save := filepath.Join(t.TempDir(), "artifact.json")
	_, errOut, code := runSiro(t, "", "-all", "-save", save)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (usage)\n%s", code, errOut)
	}
	if _, err := os.Stat(save); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("-all -save wrote %s (stat: %v)", save, err)
	}
}

// -all synthesizes the ten Table 3 pairs, one row each.
func TestAllTable3Pairs(t *testing.T) {
	out, errOut, code := runSiro(t, "", "-all")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, errOut)
	}
	for _, p := range version.Table3Pairs {
		if !strings.Contains(out, p.String()) {
			t.Fatalf("output lacks pair %s:\n%s", p, out)
		}
	}
}
