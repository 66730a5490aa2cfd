package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/isa"
	"repro/patchecko"
)

// The component-identification prefilter ablation: scan each fixture with
// the prefilter on and off and report what pruning bought (grid reduction)
// and what it must never cost (ground-truth recall, report byte-identity).

// PrefilterRow is one fixture's prefilter measurement.
type PrefilterRow struct {
	Fixture string
	Images  int
	// GridCells is the full (image, CVE, mode) grid; Pruned is how many of
	// those cells the prefilter removed; Reduction is full over scheduled.
	GridCells int
	Pruned    int
	Reduction float64
	// Recall is the kept fraction of ground-truth (CVE, host image) cells.
	// The engine contract pins it at exactly 1.0.
	Recall float64
	// Identical reports whether the pruned scan's normalized Report is
	// byte-identical to the full grid's.
	Identical bool
}

// PrefilterResult is the prefilter ablation sweep.
type PrefilterResult struct {
	Rows []PrefilterRow
}

// Render prints the sweep.
func (r PrefilterResult) Render(w io.Writer) {
	fprintf(w, "Ablation — component-identification prefilter (grid pruning vs full grid)\n")
	fprintf(w, "%-22s %7s %10s %8s %10s %7s %10s\n",
		"fixture", "images", "grid", "pruned", "reduction", "recall", "identical")
	for _, row := range r.Rows {
		fprintf(w, "%-22s %7d %10d %8d %9.2fx %7.3f %10v\n",
			row.Fixture, row.Images, row.GridCells, row.Pruned, row.Reduction,
			row.Recall, row.Identical)
	}
}

// scanAnalyzer builds a fresh analyzer with the suite's worker count so an
// ablation can flip one knob without disturbing the shared analyzer's
// memoized state. The ablation's scans skip the suite's Obs sink: they run
// every fixture twice, which would double every counter the other
// experiments report.
func (s *Suite) scanAnalyzer() *patchecko.Analyzer {
	an := patchecko.NewAnalyzer(s.Model, s.DB)
	an.Workers = s.Cfg.Workers
	return an
}

// prefilterFixtures is the ablation's fixture set: each evaluation device,
// plus the first device's firmware extended with generated vendor libraries
// whose code profile diverges from the reference corpus — the fleet shape
// where component identification pays, and where the 2x grid-reduction
// acceptance floor is measured.
func (s *Suite) prefilterFixtures() ([]struct {
	Name string
	Fw   *patchecko.Firmware
}, error) {
	var fixtures []struct {
		Name string
		Fw   *patchecko.Firmware
	}
	for _, dev := range Devices() {
		fixtures = append(fixtures, struct {
			Name string
			Fw   *patchecko.Firmware
		}{dev.Name, s.Firmware[dev.Name]})
	}
	base := s.Firmware[Devices()[0].Name]
	arch, err := isa.ByName(base.Arch)
	if err != nil {
		return nil, err
	}
	extra, err := corpus.FleetVendorImages(arch, 12, 70000)
	if err != nil {
		return nil, err
	}
	fleet := *base
	fleet.Images = append(append([]*binimg.Image{}, base.Images...), extra...)
	fixtures = append(fixtures, struct {
		Name string
		Fw   *patchecko.Firmware
	}{"fleet-" + base.Device, &fleet})
	return fixtures, nil
}

// prefilterRecall measures the keep decision against a firmware's held-out
// ground truth.
func (s *Suite) prefilterRecall(ctx context.Context, an *patchecko.Analyzer, fw *patchecko.Firmware) (float64, error) {
	workers := s.Cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	prepared, err := patchecko.PrepareImages(ctx, fw.Images, workers)
	if err != nil {
		return 0, err
	}
	byLib := make(map[string]*patchecko.PreparedImage)
	for _, p := range prepared {
		if p != nil {
			byLib[p.Image.LibName] = p
		}
	}
	if len(fw.CVEs) == 0 {
		return 0, fmt.Errorf("experiments: firmware %s has no ground-truth cells", fw.Device)
	}
	kept := 0
	for _, ct := range fw.CVEs {
		p, ok := byLib[ct.Library]
		if !ok {
			return 0, fmt.Errorf("experiments: ground-truth library %s not prepared", ct.Library)
		}
		if an.PrefilterKeep(p, ct.ID) {
			kept++
		}
	}
	return float64(kept) / float64(len(fw.CVEs)), nil
}

// AblatePrefilter scans every fixture with the prefilter on and off and
// reports grid reduction, ground-truth recall and report byte-identity
// against the full grid.
func (s *Suite) AblatePrefilter(ctx context.Context) (PrefilterResult, error) {
	fixtures, err := s.prefilterFixtures()
	if err != nil {
		return PrefilterResult{}, err
	}
	res := PrefilterResult{}
	for _, fx := range fixtures {
		var raws [][]byte
		var row PrefilterRow
		for _, prefilter := range []bool{true, false} {
			an := s.scanAnalyzer()
			an.Prefilter = prefilter
			report, err := an.ScanFirmware(ctx, fx.Fw)
			if err != nil {
				return PrefilterResult{}, err
			}
			if prefilter {
				healthy := report.Stats.Images - report.Stats.ImagesFailed
				row = PrefilterRow{
					Fixture:   fx.Name,
					Images:    healthy,
					GridCells: report.Stats.CVEs * healthy * 2,
					Pruned:    report.Stats.CellsPruned,
				}
				row.Reduction = float64(row.GridCells) / float64(row.GridCells-row.Pruned)
				if row.Recall, err = s.prefilterRecall(ctx, an, fx.Fw); err != nil {
					return PrefilterResult{}, err
				}
			}
			report.Normalize()
			raw, err := json.Marshal(report)
			if err != nil {
				return PrefilterResult{}, err
			}
			raws = append(raws, raw)
		}
		row.Identical = bytes.Equal(raws[0], raws[1])
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
