package main

import (
	"flag"
	"strings"
	"testing"

	"capsys/cmd/internal/cliflags"
)

// parseFlags parses args exactly as main would.
func parseFlags(t *testing.T, args ...string) (*cliflags.Common, *liveFlags) {
	t.Helper()
	fs := flag.NewFlagSet("caplive", flag.ContinueOnError)
	f, o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, o
}

// TestFlagErrors pins the flag combinations dispatch refuses before any mode
// starts listening, joining or running — in every mode alike.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero cost scale, local", []string{"-cost-scale", "0"}, "-cost-scale must be > 0"},
		{"zero cost scale, coordinator", []string{"-listen", "127.0.0.1:0", "-cost-scale", "0"}, "-cost-scale must be > 0"},
		{"negative cost scale, worker", []string{"-join", "127.0.0.1:1", "-cost-scale", "-2"}, "-cost-scale must be > 0"},
		{"listen and join", []string{"-listen", "127.0.0.1:0", "-join", "127.0.0.1:1"}, "mutually exclusive"},
		{"rescale without checkpoints", []string{"-rescale", "slide-win=6"}, "-rescale requires -checkpoint-every"},
		{"rescale without checkpoints, coordinator", []string{"-listen", "127.0.0.1:0", "-rescale", "slide-win=6"}, "-rescale requires -checkpoint-every"},
		{"kill without checkpoints", []string{"-kill-worker", "1"}, "-kill-worker requires -checkpoint-every"},
		{"kill out of range", []string{"-kill-worker", "4", "-checkpoint-every", "100"}, "-kill-worker 4 out of range (workers: 4)"},
		{"bad fuse", []string{"-fuse", "maybe"}, "-fuse must be on or off"},
		{"bad rescale", []string{"-rescale", "slide-win"}, "want op=parallelism"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, o := parseFlags(t, tc.args...)
			err := dispatch(f, o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("caplive %s: error = %v, want one containing %q", strings.Join(tc.args, " "), err, tc.want)
			}
		})
	}
}
