package patchecko

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/binimg"
	"repro/internal/compid"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// fleetReleases is how many releases of the golden device the duplicate-
// release fleet ships side by side.
const fleetReleases = 6

// releaseFleet builds fleetReleases releases of the golden device's update
// stream into one firmware: release k patches the first k CVEs of the
// database order and leaves the rest vulnerable, so consecutive releases
// differ in one host library and every unchanged library is byte-identical
// across releases — the shape of a real firmware set.
func releaseFleet(t *testing.T) *Firmware {
	t.Helper()
	_, db, _ := goldenFixtures(t)
	ids := db.IDs()
	var fleet *Firmware
	for k := 0; k < fleetReleases; k++ {
		dev := ThingOS
		dev.PatchState = make(map[string]bool, k)
		for _, id := range ids[:k] {
			dev.PatchState[id] = true
		}
		fw, err := BuildFirmware(dev, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if fleet == nil {
			fleet = &Firmware{Device: "fleet-" + fw.Device, Arch: fw.Arch, Truth: fw.Truth}
		}
		fleet.Images = append(fleet.Images, fw.Images...)
		fleet.CVEs = append(fleet.CVEs, fw.CVEs...)
	}
	return fleet
}

// distinctImages counts the images of a firmware with distinct encodings.
func distinctImages(images []*binimg.Image) int {
	seen := make(map[string]bool, len(images))
	for _, im := range images {
		seen[string(binimg.Encode(im))] = true
	}
	return len(seen)
}

// TestFleetGoldenReport pins whole-firmware scans of the duplicate-release
// fleet, static-only and full, each against a committed normalized report.
// Most of the fleet's images repeat an earlier release byte for byte, so
// the scan's answers must not depend on how often an image recurs.
// Regenerate after an intentional pipeline change with:
//
//	PATCHECKO_UPDATE_GOLDEN=1 go test ./patchecko/ -run TestFleetGoldenReport
func TestFleetGoldenReport(t *testing.T) {
	model, db, _ := goldenFixtures(t)
	fleet := releaseFleet(t)
	if d := distinctImages(fleet.Images); d >= len(fleet.Images) {
		t.Fatalf("fleet has %d distinct images of %d; the fixture must repeat images", d, len(fleet.Images))
	}
	for _, tc := range []struct {
		name       string
		staticOnly bool
		path       string
	}{
		{"static-only", true, "testdata/golden_fleet_static_seed42.json"},
		{"full", false, "testdata/golden_fleet_full_seed42.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			an := NewAnalyzer(model, db)
			an.Workers = 2
			an.StaticOnly = tc.staticOnly
			report, err := an.ScanFirmware(context.Background(), fleet)
			if err != nil {
				t.Fatal(err)
			}
			if report.Stats.Images != len(fleet.Images) || report.Stats.ImagesFailed != 0 {
				t.Fatalf("scanned %d images (%d failed), want %d healthy",
					report.Stats.Images, report.Stats.ImagesFailed, len(fleet.Images))
			}
			normalizeReport(report)
			raw, err := json.Marshal(report)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, '\n')
			if os.Getenv("PATCHECKO_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(tc.path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", tc.path, len(raw))
			}
			want, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatalf("missing golden file (run with PATCHECKO_UPDATE_GOLDEN=1 to create it): %v", err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("fleet %s report diverged from %s (%d vs %d bytes)", tc.name, tc.path, len(raw), len(want))
			}
		})
	}
}

// TestPrepareImagesSharesDuplicates pins prepare-once-per-content: in one
// PrepareImages call every image whose encoding repeats an earlier one gets
// the earlier slot's *PreparedImage, distinct contents get distinct ones,
// and whatever a slot receives deep-equals a fresh Prepare of its own image.
func TestPrepareImagesSharesDuplicates(t *testing.T) {
	fleet := releaseFleet(t)
	prepared, err := PrepareImages(context.Background(), fleet.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	byDigest := make(map[[sha256.Size]byte]*PreparedImage)
	pointers := make(map[*PreparedImage]bool)
	shared := 0
	for i, im := range fleet.Images {
		p, d := prepared[i], binimg.Digest(im)
		pointers[p] = true
		if p.digest != d {
			t.Errorf("slot %d (%s): prepared digest %x, want %x", i, im.LibName, p.digest, d)
		}
		if q, ok := byDigest[d]; !ok {
			byDigest[d] = p
		} else if q != p {
			t.Errorf("slot %d (%s): duplicate content prepared separately", i, im.LibName)
		} else {
			shared++
		}
		fresh, err := Prepare(im)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Image, im) || !reflect.DeepEqual(p.Dis, fresh.Dis) ||
			!reflect.DeepEqual(p.Vecs, fresh.Vecs) || !reflect.DeepEqual(p.CAS, fresh.CAS) {
			t.Errorf("slot %d (%s): shared preparation differs from a fresh Prepare", i, im.LibName)
		}
	}
	if want := distinctImages(fleet.Images); len(byDigest) != want || len(pointers) != want ||
		shared != len(fleet.Images)-want {
		t.Errorf("%d contents, %d prepared images and %d shared slots, want %d, %d and %d",
			len(byDigest), len(pointers), shared, want, want, len(fleet.Images)-want)
	}
}

// TestPrepareFailNotRemembered arms a prepare failure on one library for a
// single scan. Every slot carrying that library fails in that scan, each
// with its own ScanError, and the next scan on the same analyzer prepares
// it again and reproduces the fleet's golden report.
func TestPrepareFailNotRemembered(t *testing.T) {
	model, db, _ := goldenFixtures(t)
	fleet := releaseFleet(t)
	lib := fleet.Images[0].LibName
	slots := 0
	for _, im := range fleet.Images {
		if im.LibName == lib {
			slots++
		}
	}
	an := NewAnalyzer(model, db)
	an.Workers = 2
	an.StaticOnly = true
	disarm := faultinject.Arm(faultinject.PrepareFail, lib, errors.New("injected prepare failure"))
	report, err := an.ScanFirmware(context.Background(), fleet)
	disarm()
	if err != nil {
		t.Fatal(err)
	}
	if report.Stats.ImagesFailed != slots || len(report.Errors) != slots {
		t.Errorf("armed scan: %d images failed with %d errors, want %d each (every %s slot)",
			report.Stats.ImagesFailed, len(report.Errors), slots, lib)
	}
	report, err = an.ScanFirmware(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if report.Stats.ImagesFailed != 0 {
		t.Fatalf("disarmed scan still fails %d images", report.Stats.ImagesFailed)
	}
	normalizeReport(report)
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden_fleet_static_seed42.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(raw, '\n'), want) {
		t.Error("scan after a disarmed prepare fault diverges from the fleet golden report")
	}
}

// TestPrefilterKeepMemoMatchesFresh checks every (CVE, image) keep decision
// of the fleet against the signature matched on a fingerprint built from a
// fresh Prepare, through the images PrepareImages shares and through
// separately prepared ones, whose equal contents answer from the memo.
func TestPrefilterKeepMemoMatchesFresh(t *testing.T) {
	model, db, _ := goldenFixtures(t)
	fleet := releaseFleet(t)
	shared, err := PrepareImages(context.Background(), fleet.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]*PreparedImage, len(fleet.Images))
	for i, im := range fleet.Images {
		if fresh[i], err = Prepare(im); err != nil {
			t.Fatal(err)
		}
	}
	an := NewAnalyzer(model, db)
	for _, id := range db.IDs() {
		sig := an.signatureFor(id, fleet.Arch)
		for i, im := range fleet.Images {
			want := true
			if sig != nil {
				want = sig.Matches(compid.Extract(fresh[i].Image, fresh[i].Dis, fresh[i].Vecs))
			}
			for _, p := range []*PreparedImage{shared[i], fresh[i]} {
				if got := an.PrefilterKeep(p, id); got != want {
					t.Errorf("(%s, slot %d %s): keep %v, want %v", id, i, im.LibName, got, want)
				}
			}
		}
		tbl := an.refcache().table(id, fleet.Arch, an.StepLimit)
		tbl.mu.Lock()
		memoized := len(tbl.keep)
		tbl.mu.Unlock()
		if want := distinctImages(fleet.Images); sig != nil && memoized != want {
			t.Errorf("%s: %d memoized decisions, want one per distinct image (%d)", id, memoized, want)
		}
	}
}

// TestPrefilterFaultOnMemoHit arms compid.match on a pair whose pruning
// decision is already memoized: the fault must still fire, keep the pair and
// count prefilter_degraded, and the memo must answer again once disarmed.
func TestPrefilterFaultOnMemoHit(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	prepared, err := PrepareImages(context.Background(), fw.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	an.Obs = obs.New()
	var p *PreparedImage
	var id string
	for _, cve := range db.IDs() {
		for _, q := range prepared {
			if p == nil && !an.PrefilterKeep(q, cve) {
				p, id = q, cve
			}
		}
	}
	if p == nil {
		t.Fatal("fixture prunes no pair")
	}
	disarm := faultinject.Arm(faultinject.CompidMatch, p.Image.LibName+"|"+id, errors.New("injected match fault"))
	keep := an.PrefilterKeep(p, id)
	disarm()
	if !keep {
		t.Error("armed compid.match fault pruned a memoized pair; it must keep it")
	}
	if got := an.Obs.Get(obs.CtrPrefilterDegraded); got != 1 {
		t.Errorf("prefilter_degraded = %d, want 1", got)
	}
	if an.PrefilterKeep(p, id) {
		t.Error("memoized prune lost after the fault was disarmed")
	}
}
