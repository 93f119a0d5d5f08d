package iotaxo

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIsRejectStrayArguments builds every command and checks that a
// positional argument none of them takes makes it exit 2 with a message
// naming that argument, instead of being ignored or read as the end of the
// flags.
func TestCLIsRejectStrayArguments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/iotaxo", "./cmd/mpi-io-test", "./cmd/tracebench",
		"./cmd/traceconv", "./cmd/tracequery", "./cmd/tracereplay")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		cmd   string
		args  []string
		stray string
	}{
		{"iotaxo", []string{"-list", "extra"}, `["extra"]`},
		{"mpi-io-test", []string{"-np", "2", "-nobj", "1", "extra"}, `["extra"]`},
		{"tracebench", []string{"-exp", "table1", "fig2"}, `["fig2"]`},
		{"traceconv", []string{"in.col", "-to", "text"}, `["in.col" "-to" "text"]`},
		{"tracequery", []string{"in.col", "-summary"}, `["in.col" "-summary"]`},
		{"tracereplay", []string{"extra"}, `["extra"]`},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			var stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, tc.cmd), tc.args...)
			run.Stderr = &stderr
			err := run.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s %v: got %v, want exit status 2; stderr:\n%s", tc.cmd, tc.args, err, stderr.String())
			}
			if want := tc.cmd + ": unexpected arguments " + tc.stray; !strings.Contains(stderr.String(), want) {
				t.Fatalf("%s %v: stderr %q does not contain %q", tc.cmd, tc.args, stderr.String(), want)
			}
		})
	}
}
