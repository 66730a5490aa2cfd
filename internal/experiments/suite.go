// Package experiments reproduces every table and figure of the paper's
// evaluation (§V): Fig. 7 (per-CVE false-positive rates on two devices for
// vulnerable and patched query vectors), Fig. 8 (training accuracy/loss
// curves), Table III (dynamic feature profiles of candidate functions),
// Tables IV/V (similarity rankings), Tables VI/VII (full pipeline accuracy
// and timing per CVE), Table VIII (final patch verdicts vs ground truth),
// plus the ablations DESIGN.md calls out. Each experiment is a pure
// function of a Suite, so the CLI and the benchmarks share one
// implementation.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/cas"
	"repro/internal/corpus"
	"repro/internal/detector"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/patchecko"
)

// Config parameterizes a suite.
type Config struct {
	Scale corpus.Scale
	Seed  int64
	// Workers sizes the analyzer's scan worker pool and parallelizes
	// firmware preparation during setup. Every experiment artifact is
	// bit-identical at any worker count; <= 0 keeps scanning sequential.
	Workers int
	// Obs, when non-nil, receives the analyzer's pipeline counters and
	// trace events; experiment artifacts are byte-identical either way.
	Obs *obs.Metrics
	// Log, when non-nil, receives progress lines during setup.
	Log func(string)
}

// Suite owns the trained model, the vulnerability database and the two
// device firmware images, shared by all experiments.
type Suite struct {
	Cfg      Config
	Model    *patchecko.Model
	History  *nn.History
	Dataset  *detector.Dataset
	DB       *patchecko.DB
	Analyzer *patchecko.Analyzer

	Firmware map[string]*patchecko.Firmware // by device name
	prepared map[string]map[string]*patchecko.PreparedImage
	// scanCache memoizes vulnScan so Table III and the three ranking
	// ablations share one vulnerable-query scan, and one re-execution of
	// its profiles, per (device, CVE).
	scanCache map[scanKey]*caseScan
}

// scanKey names one (device, CVE) vulnerable-query scan.
type scanKey struct{ device, cve string }

// Devices returns the evaluation devices in presentation order.
func Devices() []corpus.Device {
	return []corpus.Device{corpus.ThingOS, corpus.Pebble2XL}
}

// NewSuite builds the corpus, trains the detector and prepares both
// firmware images. Everything is deterministic in (Scale, Seed).
func NewSuite(ctx context.Context, cfg Config) (*Suite, error) {
	logf := cfg.Log
	if logf == nil {
		logf = func(string) {}
	}
	s := &Suite{
		Cfg:       cfg,
		Firmware:  make(map[string]*patchecko.Firmware),
		prepared:  make(map[string]map[string]*patchecko.PreparedImage),
		scanCache: make(map[scanKey]*caseScan),
	}
	logf(fmt.Sprintf("building Dataset I (%s scale)...", cfg.Scale.Name))
	groups, err := corpus.TrainingGroups(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	logf(fmt.Sprintf("  %d functions, %d feature vectors", len(groups), groups.NumVectors()))

	tc := detector.DefaultTrainConfig()
	tc.Seed = cfg.Seed
	tc.MaxPosPerFunc = cfg.Scale.MaxPosPerFunc
	tc.Epochs = cfg.Scale.Epochs
	tc.Verbose = func(line string) { logf("  " + line) }
	logf("training the 6-layer similarity network...")
	s.Model, s.History, s.Dataset, err = detector.Train(groups, tc)
	if err != nil {
		return nil, err
	}

	logf("building Dataset II (vulnerability database, 25 CVEs)...")
	s.DB, err = corpus.BuildDB(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.Analyzer = patchecko.NewAnalyzer(s.Model, s.DB)
	s.Analyzer.Workers = cfg.Workers
	s.Analyzer.Obs = cfg.Obs

	prepWorkers := cfg.Workers
	if prepWorkers <= 0 {
		// Preparation has no ordering concerns at all, so default to every
		// core even when scanning stays sequential.
		prepWorkers = runtime.NumCPU()
	}
	for _, dev := range Devices() {
		logf(fmt.Sprintf("building Dataset III firmware for %s (%s)...", dev.Name, dev.Arch.Name))
		fw, err := corpus.BuildFirmware(dev, cfg.Scale)
		if err != nil {
			return nil, err
		}
		s.Firmware[dev.Name] = fw
		preparedImages, err := patchecko.PrepareImages(ctx, fw.Images, prepWorkers)
		if err != nil {
			return nil, err
		}
		prep := make(map[string]*patchecko.PreparedImage, len(preparedImages))
		uniq := make(map[cas.Addr]struct{})
		total := 0
		for _, p := range preparedImages {
			prep[p.Image.LibName] = p
			total += p.NumFuncs()
			for _, a := range p.CAS {
				uniq[a] = struct{}{}
			}
		}
		if total > 0 && len(uniq) > 0 {
			logf(fmt.Sprintf("  %d functions, %d unique bodies (dedup ratio %.2fx)",
				total, len(uniq), float64(total)/float64(len(uniq))))
		}
		s.prepared[dev.Name] = prep
	}
	return s, nil
}

// hostImage returns the prepared host-library image of a CVE on a device.
func (s *Suite) hostImage(device, cveID string) (*patchecko.PreparedImage, corpus.CVETruth, error) {
	fw, ok := s.Firmware[device]
	if !ok {
		return nil, corpus.CVETruth{}, fmt.Errorf("experiments: unknown device %q", device)
	}
	truth, ok := fw.CVETruthFor(cveID)
	if !ok {
		return nil, corpus.CVETruth{}, fmt.Errorf("experiments: no ground truth for %s", cveID)
	}
	p, ok := s.prepared[device][truth.Library]
	if !ok {
		return nil, corpus.CVETruth{}, fmt.Errorf("experiments: library %s not prepared", truth.Library)
	}
	return p, truth, nil
}

// funcName resolves an address to the ground-truth symbol name on a device
// (used only for presentation, exactly like the paper's "Ground truth"
// columns in Tables IV/V).
func (s *Suite) funcName(device, lib string, addr uint64) string {
	fw := s.Firmware[device]
	lt, ok := fw.Truth[lib]
	if !ok {
		return "?"
	}
	for _, sym := range lt.Symbols {
		if sym.Addr == addr {
			return sym.Name
		}
	}
	return fmt.Sprintf("sub_%x", addr)
}

// fprintf writes formatted output, ignoring write errors (experiment
// renderers write to stdout or test buffers).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
