package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/vulndb"
)

// fixtureCVE is the CVE whose host library scanFixture writes out.
const fixtureCVE = "CVE-2018-9412"

// scanFixture writes the seed-42 tiny-scale scan inputs into a temporary
// directory: a trained model, the vulnerability database, and the ThingOS
// image that hosts CVE-2018-9412. It returns the three paths.
func scanFixture(t *testing.T) (modelPath, dbPath, imagePath string) {
	t.Helper()
	dir := t.TempDir()
	modelPath = filepath.Join(dir, "model.json")
	if err := runTrain([]string{"-scale", "tiny", "-seed", "42", "-out", modelPath}); err != nil {
		t.Fatal(err)
	}
	db, err := corpus.BuildDB(corpus.ScaleTiny, 42)
	if err != nil {
		t.Fatal(err)
	}
	rawDB, err := db.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dbPath = filepath.Join(dir, "vulndb.json")
	if err := os.WriteFile(dbPath, rawDB, 0o644); err != nil {
		t.Fatal(err)
	}

	entry, ok := db.Get(fixtureCVE)
	if !ok {
		t.Fatalf("%s missing from the database", fixtureCVE)
	}
	fw, err := corpus.BuildFirmware(corpus.ThingOS, corpus.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range fw.Images {
		if im.LibName == entry.Library {
			imagePath = filepath.Join(dir, im.LibName+".img")
			if err := os.WriteFile(imagePath, binimg.Encode(im), 0o644); err != nil {
				t.Fatal(err)
			}
			return modelPath, dbPath, imagePath
		}
	}
	t.Fatalf("no %s image hosts %s", entry.Library, fixtureCVE)
	return "", "", ""
}

// TestScanMetricsStageTimes runs `patchecko scan -metrics` on a seed-42 tiny
// ThingOS image and checks that the run manifest times the prepare and
// static stages: a stage the CLI runs must never report zero wall-clock.
func TestScanMetricsStageTimes(t *testing.T) {
	modelPath, dbPath, imagePath := scanFixture(t)
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.json")
	if err := runScan([]string{"-model", modelPath, "-db", dbPath, "-image", imagePath,
		"-cve", fixtureCVE, "-workers", "1", "-metrics", manifestPath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	wall := make(map[string]int64)
	for _, st := range man.Stages {
		wall[st.Stage] = st.WallNs
	}
	for _, stage := range []obs.Stage{obs.StagePrepare, obs.StageStatic} {
		if wall[stage.String()] <= 0 {
			t.Errorf("manifest %s stage wall_ns = %d, want > 0", stage, wall[stage.String()])
		}
	}
}

// TestScanMetricsCountsPruning runs `patchecko scan -metrics` over every CVE
// of the fixture image and checks that the manifest's cells_pruned counts
// each CVE the transcript prints as pruned: one image, one query mode.
func TestScanMetricsCountsPruning(t *testing.T) {
	modelPath, dbPath, imagePath := scanFixture(t)
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	out := captureStdout(t, func() error {
		return runScan([]string{"-model", modelPath, "-db", dbPath, "-image", imagePath,
			"-workers", "1", "-metrics", manifestPath})
	})
	pruned := 0
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[1] == "pruned" && strings.HasPrefix(f[0], "CVE-") {
			pruned++
		}
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Fatal("the transcript prunes no CVE; the check is vacuous")
	}
	if got := man.Counters[obs.CtrCellsPruned.String()]; got != int64(pruned) {
		t.Errorf("manifest cells_pruned = %d, want %d (one per pruned line)", got, pruned)
	}
}

// TestScanTranscript pins the stdout of `patchecko scan` over every CVE of
// the seed-42 tiny fixture image, once with the component prefilter on and
// once with it off, against the transcripts committed under testdata. Any
// change to what the scan prints — verdicts, candidate counts, prefilter
// skips, dedup totals — shows up as a transcript diff. With the prefilter
// on, every CVE printed as pruned must be hosted by another library than
// the scanned image's: the prefilter never prunes a CVE's own host.
//
// Regenerate after an intentional output change with:
//
//	PATCHECKO_UPDATE_GOLDEN=1 go test ./cmd/patchecko/ -run TestScanTranscript
func TestScanTranscript(t *testing.T) {
	modelPath, dbPath, imagePath := scanFixture(t)
	rawDB, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := vulndb.Load(rawDB)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := db.Get(fixtureCVE)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"prefilter_on", nil},
		{"prefilter_off", []string{"-prefilter=false"}},
	} {
		args := append([]string{"-model", modelPath, "-db", dbPath, "-image", imagePath, "-workers", "1"}, tc.args...)
		got := captureStdout(t, func() error { return runScan(args) })
		if tc.name == "prefilter_on" {
			checkPrunedOffHost(t, got, db, host.Library)
		}
		path := filepath.Join("testdata", "scan_"+tc.name+".txt")
		if os.Getenv("PATCHECKO_UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing transcript (run with PATCHECKO_UPDATE_GOLDEN=1 to create it): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: scan output diverges from %s:\n got:\n%s\nwant:\n%s", tc.name, path, got, want)
		}
	}
}

// checkPrunedOffHost asserts that the scan transcript prunes at least one
// CVE and that no pruned CVE is hosted by imageLib, the scanned image's
// library.
func checkPrunedOffHost(t *testing.T, out []byte, db *vulndb.DB, imageLib string) {
	t.Helper()
	pruned := 0
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[1] != "pruned" || !strings.HasPrefix(f[0], "CVE-") {
			continue
		}
		pruned++
		e, ok := db.Get(f[0])
		if !ok {
			t.Errorf("pruned %s is not in the database", f[0])
		} else if e.Library == imageLib {
			t.Errorf("%s pruned, but the scanned image %s hosts it", f[0], imageLib)
		}
	}
	if pruned == 0 {
		t.Error("the prefilter pruned no CVE; the host check is vacuous")
	}
}

// captureStdout runs fn with os.Stdout redirected to a temporary file and
// returns what fn printed.
func captureStdout(t *testing.T, fn func() error) []byte {
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
	return out
}
