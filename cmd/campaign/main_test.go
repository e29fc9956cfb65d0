package main

import (
	"path/filepath"
	"strings"
	"testing"

	"renaming/internal/campaign"
)

// TestErrorLineOnePrefix pins one "campaign: " prefix on a spec error
// internal/campaign already prefixes and on a bare file error.
func TestErrorLineOnePrefix(t *testing.T) {
	_, algoErr := campaign.Spec{Algo: "crsh", N: 32, Executions: 1}.Normalized()
	_, nErr := campaign.Spec{N: 0, Executions: 1}.Normalized()
	_, loadErr := campaign.LoadArtifact(filepath.Join(t.TempDir(), "missing.json"))
	for _, err := range []error{algoErr, nErr, loadErr} {
		if err == nil {
			t.Fatal("expected an error")
		}
		if line := errorLine(err); !strings.HasPrefix(line, "campaign: ") || strings.Count(line, "campaign: ") != 1 {
			t.Errorf("error line %q: want exactly one leading \"campaign: \"", line)
		}
	}
}
