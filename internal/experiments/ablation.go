package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/corpus"
	"repro/internal/detector"
	"repro/internal/dynamic"
	"repro/internal/features"
	"repro/patchecko"
)

// Ablations for the design choices DESIGN.md calls out: the Minkowski
// exponent (the paper picks p=3 over Euclidean/Manhattan), raw vs
// log-scaled dynamic features, the number of execution environments K, and
// static-only vs hybrid false positives.

// AblationRow is one configuration's ranking quality.
type AblationRow struct {
	Config string
	// Top1 counts CVEs whose true function ranks first; Top3 within the
	// top three; Found is how many were rankable at all.
	Top1, Top3, Found int
}

// AblationResult is one ablation sweep.
type AblationResult struct {
	Name   string
	Device string
	Rows   []AblationRow
}

// Render prints the sweep.
func (r AblationResult) Render(w io.Writer) {
	fprintf(w, "Ablation — %s (device %s)\n", r.Name, r.Device)
	fprintf(w, "%-24s %6s %6s %6s\n", "config", "top1", "top3", "found")
	for _, row := range r.Rows {
		fprintf(w, "%-24s %6d %6d %6d\n", row.Config, row.Top1, row.Top3, row.Found)
	}
}

// rankWith re-ranks a scan's survivors under a custom distance over the
// first k environments (all when k <= 0) and returns the true function's
// rank, or 0 when it did not survive.
func rankWith(c *caseScan, k int, dist func(a, b dynamic.Profile, p float64) float64, p float64) (rank int) {
	type scored struct {
		addr uint64
		sim  float64
	}
	var rs []scored
	for _, r := range c.scan.Ranking {
		ps := c.survivors[r.Addr]
		n := len(c.ref)
		if k > 0 && k < n {
			n = k
		}
		if n == 0 || len(ps) < n {
			continue
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += dist(c.ref[i], ps[i].Vec, p)
		}
		rs = append(rs, scored{addr: r.Addr, sim: sum / float64(n)})
	}
	// Selection of the true function's rank.
	rank = 0
	var trueSim float64
	found := false
	for _, r := range rs {
		if r.addr == c.truth {
			trueSim = r.sim
			found = true
		}
	}
	if !found {
		return 0
	}
	rank = 1
	for _, r := range rs {
		if r.addr != c.truth && (r.sim < trueSim || (r.sim == trueSim && r.addr < c.truth)) {
			rank++
		}
	}
	return rank
}

// caseScan is one (device, CVE) vulnerable-query scan with the ground
// truth and the profiles behind its ranking. A report keeps only the
// ranking, so the profiles are re-executed from the prepared image: the
// reference's (when the scan had candidates to compare against it) and
// each ranked survivor's, by address.
type caseScan struct {
	scan      *patchecko.CVEScan
	truth     uint64
	ref       []dynamic.Profile
	survivors map[uint64][]dynamic.EnvProfile
}

// vulnScan returns the vulnerable-query scan of a CVE's host image on a
// device, memoized per (device, CVE): Table III and the three ranking
// ablations read the same scans and profiles (the scans and executions are
// deterministic, so reuse never changes a row).
func (s *Suite) vulnScan(ctx context.Context, device, cveID string) (*caseScan, error) {
	key := scanKey{device: device, cve: cveID}
	if c, ok := s.scanCache[key]; ok {
		return c, nil
	}
	p, truth, err := s.hostImage(device, cveID)
	if err != nil {
		return nil, err
	}
	entry, ok := s.DB.Get(cveID)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown CVE %s", cveID)
	}
	scan, err := s.Analyzer.ScanImage(ctx, p, cveID, patchecko.QueryVulnerable)
	if err != nil {
		return nil, err
	}
	s.Analyzer.EmitScanEvents(scan)
	c := &caseScan{scan: scan, truth: truth.Addr, survivors: make(map[uint64][]dynamic.EnvProfile, len(scan.Ranking))}
	envs := entry.Environments()
	ex := dynamic.Exec{Steps: s.Analyzer.StepLimit}
	// The scan profiled the reference exactly when it had candidates; a
	// reference that traps would have failed it.
	if scan.NumCandidates > 0 {
		ref, err := entry.VulnRef(p.Image.Arch)
		if err != nil {
			return nil, err
		}
		eps, err := dynamic.ProfileFunc(ctx, ref.Dis, ref.Fn, envs, ex)
		if err != nil {
			return nil, err
		}
		if c.ref, err = dynamic.CompleteVectors(eps); err != nil {
			return nil, fmt.Errorf("experiments: %s: reference does not execute: %w", cveID, err)
		}
	}
	for _, r := range scan.Ranking {
		fn, ok := p.Dis.FuncAt(r.Addr)
		if !ok {
			return nil, fmt.Errorf("experiments: %s: no function at ranked address %#x", cveID, r.Addr)
		}
		if c.survivors[r.Addr], err = dynamic.ProfileFunc(ctx, p.Dis, fn, envs, ex); err != nil {
			return nil, err
		}
	}
	s.scanCache[key] = c
	return c, nil
}

// scansForDevice returns the vulnerable-query scans of every CVE on a
// device, in database order.
func (s *Suite) scansForDevice(ctx context.Context, device string) ([]*caseScan, error) {
	var scans []*caseScan
	for _, id := range s.DB.IDs() {
		c, err := s.vulnScan(ctx, device, id)
		if err != nil {
			return nil, err
		}
		scans = append(scans, c)
	}
	return scans, nil
}

// AblateDistance sweeps the distance metric: Minkowski p ∈ {1,2,3} on
// log-scaled features, plus the raw (unscaled) p=3 form.
func (s *Suite) AblateDistance(ctx context.Context, device string) (AblationResult, error) {
	scans, err := s.scansForDevice(ctx, device)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Name: "similarity distance", Device: device}
	configs := []struct {
		name string
		dist func(a, b dynamic.Profile, p float64) float64
		p    float64
	}{
		{"manhattan (p=1, scaled)", dynamic.MinkowskiScaled, 1},
		{"euclidean (p=2, scaled)", dynamic.MinkowskiScaled, 2},
		{"minkowski (p=3, scaled)", dynamic.MinkowskiScaled, 3},
		{"minkowski (p=3, raw)", dynamic.Minkowski, 3},
	}
	for _, cfg := range configs {
		row := AblationRow{Config: cfg.name}
		for _, c := range scans {
			rank := rankWith(c, 0, cfg.dist, cfg.p)
			if rank == 0 {
				continue
			}
			row.Found++
			if rank == 1 {
				row.Top1++
			}
			if rank <= 3 {
				row.Top3++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblateEnvironments sweeps the number of execution environments K.
func (s *Suite) AblateEnvironments(ctx context.Context, device string) (AblationResult, error) {
	scans, err := s.scansForDevice(ctx, device)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Name: "execution environments (K)", Device: device}
	maxK := 0
	for _, c := range scans {
		maxK = max(maxK, len(c.ref))
	}
	for k := 1; k <= maxK; k++ {
		row := AblationRow{Config: configK(k)}
		for _, c := range scans {
			rank := rankWith(c, k, dynamic.MinkowskiScaled, dynamic.MinkowskiP)
			if rank == 0 {
				continue
			}
			row.Found++
			if rank == 1 {
				row.Top1++
			}
			if rank <= 3 {
				row.Top3++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func configK(k int) string { return fmt.Sprintf("K=%d", k) }

// HybridRow compares static-only candidate counts against the hybrid
// pipeline's surviving set — the paper's core argument that dynamic
// analysis prunes the deep-learning stage's false positives.
type HybridRow struct {
	CVE        string
	Candidates int // after the static stage
	Survivors  int // after dynamic validation
	TrueInCand bool
	TrueInSurv bool
}

// HybridResult is the static-vs-hybrid ablation.
type HybridResult struct {
	Device string
	Rows   []HybridRow
}

// AblateHybrid measures candidate-set shrinkage per CVE.
func (s *Suite) AblateHybrid(ctx context.Context, device string) (HybridResult, error) {
	scans, err := s.scansForDevice(ctx, device)
	if err != nil {
		return HybridResult{}, err
	}
	res := HybridResult{Device: device}
	for _, c := range scans {
		scan := c.scan
		row := HybridRow{CVE: scan.CVE, Candidates: scan.NumCandidates, Survivors: scan.NumExecuted}
		for _, a := range scan.CandidateAddr {
			if a == c.truth {
				row.TrueInCand = true
			}
		}
		row.TrueInSurv = scan.TopRank(c.truth) > 0
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the shrinkage table.
func (r HybridResult) Render(w io.Writer) {
	fprintf(w, "Ablation — static-only vs hybrid pruning (device %s)\n", r.Device)
	fprintf(w, "%-16s %10s %10s %10s\n", "CVE", "candidates", "survivors", "true-kept")
	for _, row := range r.Rows {
		kept := "-"
		if row.TrueInCand {
			kept = "pruned!"
			if row.TrueInSurv {
				kept = "yes"
			}
		}
		fprintf(w, "%-16s %10d %10d %10s\n", row.CVE, row.Candidates, row.Survivors, kept)
	}
}

// Feature-group ablation: retrain the detector with only one group of the
// 48 static features active and measure what each group contributes. The
// groups follow Table I's structure: "instruction mix" covers the scalar
// counts (constants, strings, instructions, imports, calls, sizes) and the
// per-block call/arithmetic statistics; "CFG shape" covers block/edge
// counts, cyclomatic complexity, block kinds, per-block size statistics
// and betweenness centrality.

// featureGroup returns the index set of a named group.
func featureGroup(name string) map[int]bool {
	idx := make(map[int]bool)
	add := func(lo, hi int) {
		for i := lo; i <= hi; i++ {
			idx[i] = true
		}
	}
	switch name {
	case "instruction-mix":
		add(0, 8)   // num_constant .. size_fun
		add(28, 42) // call/arith/fp per-block stats
	case "cfg-shape":
		add(9, 27)  // block instr/size stats, num_bb/num_edge/cyclomatic, fcb_*
		add(43, 47) // betweenness centrality stats
	default: // full
		add(0, features.NumStatic-1)
	}
	return idx
}

// maskGroups zeroes every feature outside the group.
func maskGroups(groups detector.Groups, keep map[int]bool) detector.Groups {
	out := make(detector.Groups, len(groups))
	for k, vs := range groups {
		mvs := make([]features.Vector, len(vs))
		for i, v := range vs {
			for d := 0; d < features.NumStatic; d++ {
				if keep[d] {
					mvs[i][d] = v[d]
				}
			}
		}
		out[k] = mvs
	}
	return out
}

// FeatureGroupRow is one group's detector quality.
type FeatureGroupRow struct {
	Group   string
	TestAcc float64
	TestAUC float64
}

// FeatureGroupResult is the feature-group ablation.
type FeatureGroupResult struct {
	Rows []FeatureGroupRow
}

// AblateFeatureGroups retrains the detector on masked feature sets. It
// rebuilds Dataset I at the suite's scale and seed, so the rows are
// directly comparable with the suite's own model.
func (s *Suite) AblateFeatureGroups() (FeatureGroupResult, error) {
	groups, err := corpus.TrainingGroups(s.Cfg.Scale, s.Cfg.Seed)
	if err != nil {
		return FeatureGroupResult{}, err
	}
	res := FeatureGroupResult{}
	for _, name := range []string{"full", "instruction-mix", "cfg-shape"} {
		masked := maskGroups(groups, featureGroup(name))
		tc := detector.DefaultTrainConfig()
		tc.Seed = s.Cfg.Seed
		tc.MaxPosPerFunc = s.Cfg.Scale.MaxPosPerFunc
		tc.Epochs = s.Cfg.Scale.Epochs
		model, _, ds, err := detector.Train(masked, tc)
		if err != nil {
			return FeatureGroupResult{}, err
		}
		acc, _, auc := model.TestMetrics(ds.Test)
		res.Rows = append(res.Rows, FeatureGroupRow{Group: name, TestAcc: acc, TestAUC: auc})
	}
	return res, nil
}

// Render prints the feature-group ablation.
func (r FeatureGroupResult) Render(w io.Writer) {
	fprintf(w, "Ablation — static feature groups (detector retrained per group)\n")
	fprintf(w, "%-18s %10s %10s\n", "group", "test_acc", "test_auc")
	for _, row := range r.Rows {
		fprintf(w, "%-18s %10.4f %10.4f\n", row.Group, row.TestAcc, row.TestAUC)
	}
}
