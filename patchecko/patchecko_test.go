package patchecko

import (
	"context"
	"sync"
	"testing"

	"repro/internal/vulndb"
)

type vulndbEntry = vulndb.Entry

// Shared fixtures: training a model and building the corpus dominate test
// time, so build them once.
var (
	fixOnce  sync.Once
	fixModel *Model
	fixDB    *DB
	fixErr   error
)

func fixtures(t *testing.T) (*Model, *DB) {
	t.Helper()
	fixOnce.Do(func() {
		groups, err := TrainingCorpus(ScaleSmall, 11)
		if err != nil {
			fixErr = err
			return
		}
		cfg := DefaultTrainConfig()
		cfg.Epochs = 8
		fixModel, _, _, fixErr = TrainDetector(groups, cfg)
		if fixErr != nil {
			return
		}
		fixDB, fixErr = BuildVulnDB(ScaleTiny, 11)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixModel, fixDB
}

func TestEndToEndCaseStudy(t *testing.T) {
	// §IV's case study, end to end: locate removeUnsynchronization
	// (CVE-2018-9412) in the ThingOS libstagefright image and confirm the
	// verdict matches the device's ground truth (unpatched).
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	truth, ok := fw.CVETruthFor("CVE-2018-9412")
	if !ok {
		t.Fatal("no ground truth")
	}
	im, ok := fw.Image(truth.Library)
	if !ok {
		t.Fatal("host library missing")
	}
	p, err := Prepare(im)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	scan, err := an.ScanImage(context.Background(), p, "CVE-2018-9412", QueryVulnerable)
	if err != nil {
		t.Fatal(err)
	}
	if scan.TotalFuncs == 0 || scan.NumCandidates == 0 {
		t.Fatalf("static stage found nothing: %+v", scan)
	}
	if scan.NumExecuted == 0 {
		t.Fatal("dynamic validation pruned every candidate")
	}
	if scan.NumExecuted > scan.NumCandidates {
		t.Error("more executed than candidates")
	}
	if !scan.Matched {
		t.Fatal("no match")
	}
	rank := scan.TopRank(truth.Addr)
	if rank == 0 || rank > 3 {
		t.Errorf("true function ranked %d, want top 3 (paper: 100%% top-3)", rank)
	}
	if scan.Verdict.Patched {
		t.Error("verdict says patched; ThingOS carries the vulnerable version")
	}
	if scan.StaticTime <= 0 || scan.DynamicTime <= 0 {
		t.Error("timings not recorded")
	}
}

func TestPatchedDeviceVerdict(t *testing.T) {
	// CVE-2017-13232 is patched on ThingOS: the pipeline must find the
	// function and report it patched.
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := fw.CVETruthFor("CVE-2017-13232")
	if !truth.Patched {
		t.Fatal("fixture assumption broken: 13232 should be patched on ThingOS")
	}
	im, _ := fw.Image(truth.Library)
	p, err := Prepare(im)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	scan, err := an.ScanImage(context.Background(), p, "CVE-2017-13232", QueryVulnerable)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Matched {
		t.Skip("static stage missed the patched variant (the paper notes vulnerable-query scans can miss patched functions)")
	}
	if scan.TopRank(truth.Addr) == 0 {
		t.Skip("true function not among dynamic survivors for the vulnerable query")
	}
	if scan.TopRank(truth.Addr) <= 3 && !scan.Verdict.Patched {
		t.Error("verdict says vulnerable; ThingOS carries the patch")
	}
}

func TestScanUnknownCVE(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(fw.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	if _, err := an.ScanImage(context.Background(), p, "CVE-1999-0001", QueryVulnerable); err == nil {
		t.Error("want error for unknown CVE")
	}
}

func TestQueryModes(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(ThingOS, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := fw.CVETruthFor("CVE-2018-9412")
	im, _ := fw.Image(truth.Library)
	p, err := Prepare(im)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	for _, mode := range []QueryMode{QueryVulnerable, QueryPatched} {
		scan, err := an.ScanImage(context.Background(), p, "CVE-2018-9412", mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if scan.Mode != mode {
			t.Errorf("mode not recorded")
		}
	}
	if QueryVulnerable.String() == QueryPatched.String() {
		t.Error("mode strings indistinct")
	}
}

func TestScanFirmwareReport(t *testing.T) {
	model, db := fixtures(t)
	fw, err := BuildFirmware(Pebble2XL, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	report, err := an.ScanFirmware(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	if report.Device != Pebble2XL.Name || report.Arch != "xarm64" {
		t.Errorf("report header wrong: %+v", report)
	}
	if len(report.Results) != 25 {
		t.Fatalf("%d CVE results, want 25", len(report.Results))
	}
	matched := 0
	for id, scan := range report.Results {
		if scan == nil {
			t.Fatalf("%s: nil scan", id)
		}
		if scan.Matched {
			matched++
		}
	}
	if matched < 15 {
		t.Errorf("only %d/25 CVEs matched anywhere in the firmware", matched)
	}
}

func TestPreparedImageCountsFunctions(t *testing.T) {
	_, db := fixtures(t)
	entry, _ := db.Get("CVE-2018-9412")
	ref, err := entry.VulnRef("amd64")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(ref.Dis.Image)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumFuncs() != 1 || len(p.Vecs) != 1 {
		t.Errorf("single-function reference image prepared as %d funcs", p.NumFuncs())
	}
}

func TestAddCVE(t *testing.T) {
	_, db := fixtures(t)
	// Work on a copy so other tests see the stock database.
	dbCopy := &DB{Entries: append([]*vulndbEntry(nil), db.Entries...)}

	const vuln = `
func zap(p, n) {
    i = 0;
    while (i <= n) {  // off-by-one
        p[i] = 0;
        i = i + 1;
    }
    return i;
}
`
	const patched = `
func zap(p, n) {
    i = 0;
    while (i < n) {
        p[i] = 0;
        i = i + 1;
    }
    return i;
}
`
	c := CustomCVE{
		ID: "ADV-TEST-1", Library: "libzap", FuncName: "zap",
		Vulnerable: vuln, Patched: patched,
	}
	if err := AddCVE(dbCopy, c); err != nil {
		t.Fatal(err)
	}
	entry, ok := dbCopy.Get("ADV-TEST-1")
	if !ok {
		t.Fatal("entry not added")
	}
	if len(entry.Envs) == 0 || len(entry.VulnImages) != 4 || len(entry.PatchedImages) != 4 {
		t.Errorf("incomplete entry: %d envs, %d/%d images",
			len(entry.Envs), len(entry.VulnImages), len(entry.PatchedImages))
	}
	// Duplicate and malformed additions are rejected.
	if err := AddCVE(dbCopy, c); err == nil {
		t.Error("duplicate ID accepted")
	}
	bad := []CustomCVE{
		{ID: "", FuncName: "zap", Vulnerable: vuln, Patched: patched},
		{ID: "X", FuncName: "nosuch", Vulnerable: vuln, Patched: patched},
		{ID: "Y", FuncName: "zap", Vulnerable: "not source", Patched: patched},
		{ID: "Z", FuncName: "zap", Vulnerable: vuln,
			Patched: "func zap(p) { return 0; }"}, // arity mismatch
	}
	for _, c := range bad {
		if err := AddCVE(dbCopy, c); err == nil {
			t.Errorf("accepted bad custom CVE %q", c.ID)
		}
	}
}

func TestCompileSourceAndDisassemble(t *testing.T) {
	im, err := CompileSource("libsrc", "func f(a) { return a * 3; }", "x86", "O2")
	if err != nil {
		t.Fatal(err)
	}
	dis, err := Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(dis.Funcs) != 1 || dis.Funcs[0].Name != "f" {
		t.Errorf("unexpected disassembly: %d funcs", len(dis.Funcs))
	}
	if _, err := CompileSource("x", "garbage", "x86", "O2"); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := CompileSource("x", "func f() { return 0; }", "mips", "O2"); err == nil {
		t.Error("bad arch accepted")
	}
	if _, err := CompileSource("x", "func f() { return 0; }", "x86", "O9"); err == nil {
		t.Error("bad level accepted")
	}
}
