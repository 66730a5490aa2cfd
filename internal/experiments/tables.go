package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/dynamic"
	"repro/internal/features"
	"repro/internal/vulndb"
	"repro/patchecko"
)

// refVec extracts the static query vector of one reference version on one
// architecture.
func refVec(entry *vulndb.Entry, arch string, mode patchecko.QueryMode) (features.Vector, error) {
	var (
		ref *vulndb.Ref
		err error
	)
	if mode == patchecko.QueryPatched {
		ref, err = entry.PatchedRef(arch)
	} else {
		ref, err = entry.VulnRef(arch)
	}
	if err != nil {
		return features.Vector{}, err
	}
	return ref.StaticVec(), nil
}

// --- Table III: dynamic feature profiles of surviving candidates ---

// Table3Row is one function's dynamic feature vector (averaged over the K
// environments, like the paper shows one representative profile per
// candidate).
type Table3Row struct {
	Label    string
	Features [21]float64
}

// Table3Result reproduces the case-study profiling table.
type Table3Result struct {
	CVE    string
	Device string
	Rows   []Table3Row // candidates first, reference function last
}

// Table3 profiles the surviving candidates of one CVE on one device and
// appends the vulnerability-database reference function's profile, exactly
// like the paper's Table III (candidates 1..38 plus "Vulnerable function").
func (s *Suite) Table3(ctx context.Context, device, cveID string) (Table3Result, error) {
	c, err := s.vulnScan(ctx, device, cveID)
	if err != nil {
		return Table3Result{}, err
	}
	res := Table3Result{CVE: cveID, Device: device}
	for _, r := range c.scan.Ranking {
		res.Rows = append(res.Rows, Table3Row{
			Label:    fmt.Sprintf("candidate_%x", r.Addr),
			Features: meanProfile(dynamic.Vectors(c.survivors[r.Addr])),
		})
	}
	res.Rows = append(res.Rows, Table3Row{
		Label:    "Vulnerable function",
		Features: meanProfile(c.ref),
	})
	return res, nil
}

func meanProfile(ps []dynamic.Profile) [21]float64 {
	var out [21]float64
	if len(ps) == 0 {
		return out
	}
	for _, p := range ps {
		for i, v := range p {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(ps))
	}
	return out
}

// Render prints the profiling table.
func (r Table3Result) Render(w io.Writer) {
	fprintf(w, "Table III — dynamic feature profiles for %s on %s (F1..F21, mean over environments)\n", r.CVE, r.Device)
	fprintf(w, "%-24s", "Candidate")
	for i := 1; i <= 21; i++ {
		fprintf(w, " %7s", fmt.Sprintf("F%d", i))
	}
	fprintf(w, "\n")
	for _, row := range r.Rows {
		fprintf(w, "%-24s", row.Label)
		for _, v := range row.Features {
			fprintf(w, " %7.1f", v)
		}
		fprintf(w, "\n")
	}
}

// --- Tables IV and V: similarity rankings ---

// RankRow is one ranked candidate with its ground-truth identity.
type RankRow struct {
	Candidate   string
	Sim         float64
	GroundTruth string
}

// RankResult reproduces Table IV (vulnerable query) / Table V (patched
// query): the top-ranked candidates by dynamic similarity.
type RankResult struct {
	CVE    string
	Device string
	Mode   patchecko.QueryMode
	Rows   []RankRow
}

// Ranking computes the top-N dynamic similarity ranking for one CVE.
func (s *Suite) Ranking(ctx context.Context, device, cveID string, mode patchecko.QueryMode, topN int) (RankResult, error) {
	p, truth, err := s.hostImage(device, cveID)
	if err != nil {
		return RankResult{}, err
	}
	scan, err := s.Analyzer.ScanImage(ctx, p, cveID, mode)
	if err != nil {
		return RankResult{}, err
	}
	s.Analyzer.EmitScanEvents(scan)
	res := RankResult{CVE: cveID, Device: device, Mode: mode}
	for i, r := range scan.Ranking {
		if topN > 0 && i >= topN {
			break
		}
		res.Rows = append(res.Rows, RankRow{
			Candidate:   fmt.Sprintf("candidate_%x", r.Addr),
			Sim:         r.Sim,
			GroundTruth: s.funcName(device, truth.Library, r.Addr),
		})
	}
	return res, nil
}

// Render prints the ranking table.
func (r RankResult) Render(w io.Writer) {
	table := "IV"
	if r.Mode == patchecko.QueryPatched {
		table = "V"
	}
	fprintf(w, "Table %s — similarity ranking for %s on %s (%s query)\n", table, r.CVE, r.Device, r.Mode)
	fprintf(w, "%-24s %10s  %s\n", "Candidate", "Sim", "Ground truth")
	for _, row := range r.Rows {
		fprintf(w, "%-24s %10.3f  %s\n", row.Candidate, row.Sim, row.GroundTruth)
	}
}

// --- Tables VI and VII: full pipeline accuracy per CVE ---

// PipelineRow is one CVE's end-to-end result on a device.
type PipelineRow struct {
	CVE   string
	TP    int
	TN    int
	FP    int
	FN    int
	Total int
	// Execution is the number of candidates surviving input validation.
	Execution int
	// Ranking is the 1-based dynamic rank of the true function (0 = missed).
	Ranking     int
	StaticTime  time.Duration
	DynamicTime time.Duration
}

// FPRate is the static-stage false-positive rate.
func (r PipelineRow) FPRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.FP) / float64(r.Total)
}

// PipelineResult reproduces Table VI (vulnerable query) or Table VII
// (patched query) for one device.
type PipelineResult struct {
	Device string
	Mode   patchecko.QueryMode
	Rows   []PipelineRow
}

// Pipeline runs the full three-stage pipeline for every CVE on a device.
func (s *Suite) Pipeline(ctx context.Context, device string, mode patchecko.QueryMode) (PipelineResult, error) {
	res := PipelineResult{Device: device, Mode: mode}
	for _, id := range s.DB.IDs() {
		p, truth, err := s.hostImage(device, id)
		if err != nil {
			return PipelineResult{}, err
		}
		scan, err := s.Analyzer.ScanImage(ctx, p, id, mode)
		if err != nil {
			return PipelineResult{}, err
		}
		s.Analyzer.EmitScanEvents(scan)
		row := PipelineRow{
			CVE:         id,
			Total:       scan.TotalFuncs,
			Execution:   scan.NumExecuted,
			Ranking:     scan.TopRank(truth.Addr),
			StaticTime:  scan.StaticTime,
			DynamicTime: scan.DynamicTime,
		}
		for _, addr := range scan.CandidateAddr {
			if addr == truth.Addr {
				row.TP = 1
			} else {
				row.FP++
			}
		}
		row.FN = 1 - row.TP
		row.TN = row.Total - row.TP - row.FP - row.FN
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the per-CVE pipeline table.
func (r PipelineResult) Render(w io.Writer) {
	table := "VI"
	if r.Mode == patchecko.QueryPatched {
		table = "VII"
	}
	fprintf(w, "Table %s — pipeline accuracy on %s (%s query)\n", table, r.Device, r.Mode)
	fprintf(w, "%-16s %3s %5s %4s %3s %6s %7s %5s %5s %10s %10s\n",
		"CVE", "TP", "TN", "FP", "FN", "Total", "FP(%)", "Exec", "Rank", "DP(ms)", "DA(ms)")
	for _, row := range r.Rows {
		rank := "N/A"
		if row.Ranking > 0 {
			rank = fmt.Sprintf("%d", row.Ranking)
		}
		fprintf(w, "%-16s %3d %5d %4d %3d %6d %7.2f %5d %5s %10.2f %10.2f\n",
			row.CVE, row.TP, row.TN, row.FP, row.FN, row.Total, 100*row.FPRate(),
			row.Execution, rank,
			float64(row.StaticTime.Microseconds())/1000,
			float64(row.DynamicTime.Microseconds())/1000)
	}
	var avgFP float64
	top3 := 0
	found := 0
	for _, row := range r.Rows {
		avgFP += row.FPRate()
		if row.Ranking > 0 {
			found++
			if row.Ranking <= 3 {
				top3++
			}
		}
	}
	fprintf(w, "average FP rate %.2f%%; true function in top 3 for %d/%d found (%d missed by the static stage)\n",
		100*avgFP/float64(len(r.Rows)), top3, found, len(r.Rows)-found)
}

// --- Table VIII: final patch verdicts ---

// VerdictRow is one CVE's final patch decision vs ground truth.
type VerdictRow struct {
	CVE string
	// Reported is PATCHECKO's verdict (true = patched); Found reports
	// whether any stage located the function at all.
	Found       bool
	Reported    bool
	GroundTruth bool
	Confidence  float64
	// TrueMatch reports whether the matched function is the CVE's true
	// host function. A miss without it is a verdict about the wrong
	// function, which no verdict-side change can repair.
	TrueMatch bool
}

// Correct reports agreement with ground truth.
func (r VerdictRow) Correct() bool { return r.Found && r.Reported == r.GroundTruth }

// VerdictResult reproduces Table VIII for one device.
type VerdictResult struct {
	Device string
	Rows   []VerdictRow
}

// Accuracy is the fraction of correct verdicts.
func (r VerdictResult) Accuracy() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	ok := 0
	for _, row := range r.Rows {
		if row.Correct() {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Rows))
}

// Verdicts runs the differential engine for every CVE on a device. Like
// the paper, the vulnerable-query match drives the decision; when the
// static stage misses with the vulnerable query (which happens for patched
// targets), the patched-query scan supplies the match.
func (s *Suite) Verdicts(ctx context.Context, device string) (VerdictResult, error) {
	an := s.Analyzer
	res := VerdictResult{Device: device}
	for _, id := range s.DB.IDs() {
		p, truth, err := s.hostImage(device, id)
		if err != nil {
			return VerdictResult{}, err
		}
		scan, err := an.ScanImage(ctx, p, id, patchecko.QueryVulnerable)
		if err != nil {
			return VerdictResult{}, err
		}
		an.EmitScanEvents(scan)
		if !scan.Matched || scan.Match.Addr != truth.Addr {
			pscan, err := an.ScanImage(ctx, p, id, patchecko.QueryPatched)
			if err != nil {
				return VerdictResult{}, err
			}
			an.EmitScanEvents(pscan)
			if pscan.Matched && (pscan.Match.Addr == truth.Addr || !scan.Matched) {
				scan = pscan
			}
		}
		row := VerdictRow{CVE: id, GroundTruth: truth.Patched}
		if scan.Matched {
			row.Found = true
			row.Reported = scan.Verdict.Patched
			row.Confidence = scan.Verdict.Confidence
			row.TrueMatch = scan.Match.Addr == truth.Addr
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the verdict table.
func (r VerdictResult) Render(w io.Writer) {
	fprintf(w, "Table VIII — final patch detection on %s\n", r.Device)
	fprintf(w, "%-16s %10s %12s %6s\n", "CVE", "PATCHECKO", "GroundTruth", "OK")
	mark := func(b bool) string {
		if b {
			return "patched"
		}
		return "vuln"
	}
	for _, row := range r.Rows {
		status := "MISS"
		if row.Correct() {
			status = "ok"
		}
		rep := "not-found"
		if row.Found {
			rep = mark(row.Reported)
		}
		fprintf(w, "%-16s %10s %12s %6s\n", row.CVE, rep, mark(row.GroundTruth), status)
	}
	fprintf(w, "patch detection accuracy: %.0f%%\n", 100*r.Accuracy())
}

// --- §V headline numbers ---

// Headline aggregates the numbers quoted in the paper's abstract and §V:
// detection accuracy, top-3 ranking rate, patch-detection accuracy.
type Headline struct {
	TestAccuracy  float64 // deep learning model, held-out pairs
	TestAUC       float64
	Top3Rate      float64 // fraction of located functions ranked top-3
	PatchAccuracy float64 // Table VIII accuracy on ThingOS
}

// Headlines computes the headline metrics.
func (s *Suite) Headlines(ctx context.Context) (Headline, error) {
	h := Headline{}
	acc, _, auc := s.Model.TestMetrics(s.Dataset.Test)
	h.TestAccuracy, h.TestAUC = acc, auc

	found, top3 := 0, 0
	for _, dev := range Devices() {
		pr, err := s.Pipeline(ctx, dev.Name, patchecko.QueryVulnerable)
		if err != nil {
			return h, err
		}
		for _, row := range pr.Rows {
			if row.Ranking > 0 {
				found++
				if row.Ranking <= 3 {
					top3++
				}
			}
		}
	}
	if found > 0 {
		h.Top3Rate = float64(top3) / float64(found)
	}
	vr, err := s.Verdicts(ctx, primaryDevice().Name)
	if err != nil {
		return h, err
	}
	h.PatchAccuracy = vr.Accuracy()
	return h, nil
}

// primaryDevice is the device whose ground truth mirrors the paper's
// Table VIII (the Android Things stand-in).
func primaryDevice() patchecko.Device { return Devices()[0] }
