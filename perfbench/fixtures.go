package main

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/patchecko"
)

// modelSeed fixes the detector model and the vulnerability database. They
// are the program's configuration, not its input: every workload seed scans
// with the same tiny-scale model and DB, so runs on different seeds differ
// only in the firmware they are handed.
const modelSeed = 42

// world is the trained model and the CVE database every workload scans
// with.
type world struct {
	model     *patchecko.Model
	modelHash string // keys the persistent score store
	db        *patchecko.DB
}

// buildWorld trains the tiny-scale detector and builds the tiny-scale DB
// (whose fuzzer runs the emulator), exactly as the experiments suite does.
func buildWorld() (*world, error) {
	scale := patchecko.ScaleTiny
	groups, err := patchecko.TrainingCorpus(scale, modelSeed)
	if err != nil {
		return nil, fmt.Errorf("training corpus: %w", err)
	}
	tc := patchecko.DefaultTrainConfig()
	tc.Seed = modelSeed
	tc.MaxPosPerFunc = scale.MaxPosPerFunc
	tc.Epochs = scale.Epochs
	model, _, _, err := patchecko.TrainDetector(groups, tc)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	raw, err := model.Marshal()
	if err != nil {
		return nil, fmt.Errorf("model marshal: %w", err)
	}
	db, err := patchecko.BuildVulnDB(scale, modelSeed)
	if err != nil {
		return nil, fmt.Errorf("vulnerability DB: %w", err)
	}
	return &world{model: model, modelHash: obs.ModelHash(raw), db: db}, nil
}

// inputSeeds are one generated input's seeds.
type inputSeeds struct {
	device int64    // Device.Seed: library bodies, layout and opt levels
	vendor int64    // corpus.FleetVendorImages seed
	order  []string // update order: the CVE each successive release patches
}

// deriveInputs derives the seeds of a run's n inputs from the workload
// seed, so the same seed always yields the same firmware.
func deriveInputs(seed int64, ids []string, n int) []inputSeeds {
	rng := rand.New(rand.NewSource(seed))
	out := make([]inputSeeds, n)
	for i := range out {
		s := inputSeeds{
			device: 100_000 + rng.Int63n(1<<30),
			vendor: 100_000 + rng.Int63n(1<<30),
			order:  slices.Clone(ids),
		}
		rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		out[i] = s
	}
	return out
}

// device is a device shaped like the paper's device A (ThingOS: XARM32, ten
// patched CVEs) but generated from the derived device seed. patched
// overrides the patch state when non-nil.
func device(seed int64, patched map[string]bool) patchecko.Device {
	d := patchecko.ThingOS
	d.Name = fmt.Sprintf("bench-%d", seed)
	d.Seed = seed
	if patched != nil {
		d.PatchState = patched
	}
	return d
}

// release returns the patch state of release k of an update stream: the
// first k CVEs of the update order are patched, the rest are vulnerable.
func release(order []string, k int) map[string]bool {
	st := make(map[string]bool, k)
	for _, id := range order[:k] {
		st[id] = true
	}
	return st
}

// deviceFirmware is the device-scan input: one tiny ThingOS-shaped device
// (10 images, 175 functions, 25 hosted CVEs).
func deviceFirmware(s inputSeeds) (*patchecko.Firmware, error) {
	return patchecko.BuildFirmware(device(s.device, nil), patchecko.ScaleTiny)
}

// Fleet shape: fleetReleases patch levels of one device with small-scale
// bodies (12 images each; unchanged libraries are byte-identical across
// releases) plus fleetVendors vendor libraries hosting no CVE: 216 images,
// sized so one static-only scan takes about half a second.
const (
	fleetReleases = 16
	fleetVendors  = 24
)

// fleetFirmware is the fleet-triage input: every release of a device's
// update stream shipped side by side, plus vendor libraries. Its Truth and
// CVEs are the union over releases.
func fleetFirmware(s inputSeeds) (*patchecko.Firmware, error) {
	var fleet *patchecko.Firmware
	for k := 0; k < fleetReleases; k++ {
		fw, err := patchecko.BuildFirmware(device(s.device, release(s.order, k)), patchecko.ScaleSmall)
		if err != nil {
			return nil, err
		}
		if fleet == nil {
			fleet = &patchecko.Firmware{Device: "fleet-" + fw.Device, Arch: fw.Arch, Truth: fw.Truth}
		}
		fleet.Images = append(fleet.Images, fw.Images...)
		fleet.CVEs = append(fleet.CVEs, fw.CVEs...)
	}
	vendor, err := corpus.FleetVendorImages(patchecko.ThingOS.Arch, fleetVendors, s.vendor)
	if err != nil {
		return nil, err
	}
	fleet.Images = append(fleet.Images, vendor...)
	return fleet, nil
}

// streamRelease is one release of the daemon-rescan update stream: the
// firmware (for grading) and its submission bytes.
type streamRelease struct {
	fw  *patchecko.Firmware
	sub server.Submission
}

// updateStream builds releases 0..len(order) of one device: release 0 has
// no CVE patched, and each later release patches one more, so consecutive
// releases differ in one host library.
func updateStream(s inputSeeds) ([]*streamRelease, error) {
	out := make([]*streamRelease, 0, len(s.order)+1)
	for k := 0; k <= len(s.order); k++ {
		fw, err := patchecko.BuildFirmware(device(s.device, release(s.order, k)), patchecko.ScaleTiny)
		if err != nil {
			return nil, err
		}
		sub := server.Submission{Device: fw.Device, Arch: fw.Arch}
		for _, im := range fw.Images {
			sub.Images = append(sub.Images, binimg.Encode(im))
		}
		out = append(out, &streamRelease{fw: fw, sub: sub})
	}
	return out, nil
}

// verdictAccuracy is the paper's Table VIII figure: the share of
// ground-truth CVEs whose reported patch verdict is correct.
func verdictAccuracy(fw *patchecko.Firmware, r *patchecko.Report) float64 {
	ok := 0
	for _, t := range fw.CVEs {
		if s := r.Results[t.ID]; s != nil && s.Matched && s.Verdict.Patched == t.Patched {
			ok++
		}
	}
	return float64(ok) / float64(len(fw.CVEs))
}

// matchAccuracy is the share of ground-truth CVEs whose reported match is
// the true host function.
func matchAccuracy(fw *patchecko.Firmware, r *patchecko.Report) float64 {
	ok := 0
	for _, t := range fw.CVEs {
		if s := r.Results[t.ID]; s != nil && s.Matched && s.Library == t.Library && s.Match.Addr == t.Addr {
			ok++
		}
	}
	return float64(ok) / float64(len(fw.CVEs))
}

// candidateAccuracy grades a static-only report, which carries no verdicts:
// the share of CVEs whose reported candidates include a true host function
// (of any release in the fleet).
func candidateAccuracy(fw *patchecko.Firmware, r *patchecko.Report) float64 {
	type host struct {
		lib  string
		addr uint64
	}
	hosts := make(map[string]map[host]bool)
	for _, t := range fw.CVEs {
		if hosts[t.ID] == nil {
			hosts[t.ID] = make(map[host]bool)
		}
		hosts[t.ID][host{t.Library, t.Addr}] = true
	}
	ok := 0
	for id, hs := range hosts {
		s := r.Results[id]
		if s == nil {
			continue
		}
		for _, a := range s.CandidateAddr {
			if hs[host{s.Library, a}] {
				ok++
				break
			}
		}
	}
	return float64(ok) / float64(len(hosts))
}
