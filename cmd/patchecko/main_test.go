package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// TestScanMetricsStageTimes runs `patchecko scan -metrics` on a seed-42 tiny
// ThingOS image and checks that the run manifest times the prepare and
// static stages: a stage the CLI runs must never report zero wall-clock.
func TestScanMetricsStageTimes(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
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
	dbPath := filepath.Join(dir, "vulndb.json")
	if err := os.WriteFile(dbPath, rawDB, 0o644); err != nil {
		t.Fatal(err)
	}

	const cve = "CVE-2018-9412"
	entry, ok := db.Get(cve)
	if !ok {
		t.Fatalf("%s missing from the database", cve)
	}
	fw, err := corpus.BuildFirmware(corpus.ThingOS, corpus.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	imagePath := ""
	for _, im := range fw.Images {
		if im.LibName == entry.Library {
			imagePath = filepath.Join(dir, im.LibName+".img")
			if err := os.WriteFile(imagePath, binimg.Encode(im), 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if imagePath == "" {
		t.Fatalf("no %s image hosts %s", entry.Library, cve)
	}

	manifestPath := filepath.Join(dir, "manifest.json")
	if err := runScan([]string{"-model", modelPath, "-db", dbPath, "-image", imagePath,
		"-cve", cve, "-workers", "1", "-metrics", manifestPath}); err != nil {
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
