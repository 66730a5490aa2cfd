package main

import (
	"os"
	"strings"
	"testing"
)

// TestAllArtifacts runs the experiments command end to end at tiny scale and
// checks that it prints every artifact's header, in order: the census,
// Fig. 8 and Fig. 7 (tables and charts), Tables III–VIII, the baselines,
// each ablation and the headline metrics.
func TestAllArtifacts(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-scale", "tiny", "-seed", "1", "-all"})
	})
	headers := []string{
		"Firmware census",
		"Fig. 8 — deep learning training curves",
		"Fig. 8 — training curves (bars",
		"Fig. 7 — static-stage false positive rate per CVE",
		"Fig. 7 — static-stage false positive rate (bars",
		"Table III — dynamic feature profiles",
		"Table IV — similarity ranking",
		"Table V — similarity ranking",
		"Table VI — pipeline accuracy",
		"Table VII — pipeline accuracy",
		"Table VIII — final patch detection on thingos-1.0",
		"Table VIII — final patch detection on pebble-2xl",
		"Baseline comparison",
		"Ablation — similarity distance",
		"Ablation — execution environments",
		"Ablation — static-only vs hybrid pruning",
		"Ablation — static feature groups",
		"Ablation — obfuscation robustness",
		"Ablation — component-identification prefilter",
		"headline metrics",
		"  deep learning test accuracy:",
		"  deep learning test AUC:",
		"  true match in top 3:",
		"  patch detection accuracy:",
	}
	lines := strings.Split(out, "\n")
	at := 0
	for _, h := range headers {
		for at < len(lines) && !strings.HasPrefix(lines[at], h) {
			at++
		}
		if at == len(lines) {
			t.Fatalf("no line starting %q after the previous artifact; output:\n%s", h, out)
		}
		at++
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = orig
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
