package ringsampler

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runDocLint runs scripts/doclint.sh over docs (none: README.md and
// DESIGN.md) and returns its stderr and whether it passed.
func runDocLint(t *testing.T, docs ...string) (string, bool) {
	t.Helper()
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Fatalf("doclint needs a POSIX sh: %v", err)
	}
	cmd := exec.Command(sh, append([]string{"scripts/doclint.sh"}, docs...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	if _, failed := err.(*exec.ExitError); err != nil && !failed {
		t.Fatal(err)
	}
	return stderr.String(), err == nil
}

// TestDocLint: README.md, DESIGN.md and the commands' doc comments
// cite only paths, commands, flags and tests that exist, and the lint
// that keeps them so catches each kind of dead reference when one is
// planted.
func TestDocLint(t *testing.T) {
	t.Run("tree", func(t *testing.T) {
		if out, ok := runDocLint(t); !ok {
			t.Fatalf("doclint fails on its default files:\n%s", out)
		}
	})
	plant := func(t *testing.T, name, body string) string {
		doc := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(doc, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	t.Run("live", func(t *testing.T) {
		doc := plant(t, "PLANTED.md", "See `core/worker.go:1`, `cmd/<name>/main.go`, "+
			"`scripts/check.sh`, `go run ./cmd/epoch -probe`, `go run ./cmd/serve -h`, "+
			"`go run -C cmd/bench . -workload train_feat -windows 3` and TestEndToEnd.\n"+
			"```\ngo run ./cmd/benchprep [-regen]\ngo run ./cmd/serve -data d \\\n  -addr :8080 # -not-a-flag\n```\n")
		if out, ok := runDocLint(t, doc); !ok {
			t.Fatalf("doclint rejects live references:\n%s", out)
		}
	})
	for _, tc := range []struct{ name, file, body, want string }{
		{"dead_path", "PLANTED.md", "See `internal/nosuchpkg/x.go`.\n", "internal/nosuchpkg/x.go"},
		{"dead_go_run", "PLANTED.md", "Run `go run ./cmd/nosuchcmd`.\n", "cmd/nosuchcmd"},
		{"dead_test", "PLANTED.md", "Held by TestNoSuchContract.\n", "TestNoSuchContract"},
		// A flag the command no longer defines, on a continuation line.
		{"dead_flag", "PLANTED.md", "```\ngo run ./cmd/epoch -data d \\\n  -threads 8 -strategy weighted\n```\n", "-strategy"},
		// The same in a command's usage lines, a Go doc comment.
		{"dead_flag_go_doc", "main.go", "// Usage:\n//\n//\tgo run ./cmd/epoch -targets 8192 -invariance\npackage main\n", "-invariance"},
		// A run of a command that needs a dataset, without -data: every
		// flag is defined, but the command refuses to start.
		{"no_data", "PLANTED.md", "```\ngo run ./cmd/epoch -targets 8192 -threads 2\n```\n", "passes no -data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, ok := runDocLint(t, plant(t, tc.file, tc.body))
			if ok {
				t.Fatalf("doclint accepted %q", tc.body)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("doclint failed without naming %s:\n%s", tc.want, out)
			}
		})
	}
}
