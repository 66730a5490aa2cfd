package patchecko

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/diffengine"
	"repro/internal/disasm"
	"repro/internal/dynamic"
	"repro/internal/features"
	"repro/internal/vulndb"
)

// dedupFleet builds the delta-scan fixture: the seed-42 firmware plus a
// byte-identical clone of one library under another name, the way a real
// fleet ships the same vendor library on several device models. The clone
// guarantees genuine cross-image duplication, so the in-memory dedup path
// is exercised and measurable.
func dedupFleet(t *testing.T) (*Model, *DB, *Firmware, *binimg.Image) {
	t.Helper()
	model, db, fw := goldenFixtures(t)
	clone := *fw.Images[0]
	clone.LibName = fw.Images[0].LibName + "clone"
	fleet := *fw
	fleet.Images = append(append([]*binimg.Image{}, fw.Images...), &clone)
	return model, db, &fleet, &clone
}

// uniqueAddrs prepares a fleet's images and returns its set of function
// content addresses — the ground truth the store counters are checked
// against.
func uniqueAddrs(t *testing.T, fw *Firmware) map[cas.Addr]struct{} {
	t.Helper()
	prepared, err := PrepareImages(context.Background(), fw.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[cas.Addr]struct{})
	for _, p := range prepared {
		for _, a := range p.CAS {
			set[a] = struct{}{}
		}
	}
	return set
}

// TestDeltaScanStore pins the incremental-scan contract end to end:
//
//   - a cold store misses once per (CVE, mode, unique function) and is
//     fully populated by the scan;
//   - a warm rescan of the identical fleet answers every consult from disk
//     and recomputes nothing;
//   - after a mutation, a warm rescan re-scores exactly the functions whose
//     content actually changed;
//   - a store written under another model hash invalidates everything;
//   - and in every configuration the Report bytes equal the store-less scan.
func TestDeltaScanStore(t *testing.T) {
	model, db, fleet, clone := dedupFleet(t)
	hash := goldenModelHash(t)
	dir := t.TempDir()

	// scan returns the pre-normalization stats (the dedup/store counters
	// under test) alongside the normalized report bytes (the equivalence
	// half of the contract). The store-consult arithmetic below counts one
	// consult per (CVE, mode, unique function) over the FULL grid, so these
	// scans turn the component prefilter off; the prefilter×store
	// combination is byte-equality-checked at the end.
	scan := func(st *cas.Store, fw *Firmware) (ScanStats, []byte) {
		t.Helper()
		an := NewAnalyzer(model, db)
		an.Workers = 4
		an.Prefilter = false
		an.Store = st
		report, err := an.ScanFirmware(context.Background(), fw)
		if err != nil {
			t.Fatal(err)
		}
		stats := report.Stats
		normalizeReport(report)
		raw, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		return stats, raw
	}
	open := func(dir, hash string) *cas.Store {
		t.Helper()
		st, err := cas.Open(dir, hash, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// consults = one store lookup per (CVE, query mode, unique function).
	consults := func(r ScanStats) int64 {
		return int64(r.CVEs) * 2 * int64(r.UniqueFuncs)
	}

	// Baseline without a store: the store must never change the bytes.
	_, baseRaw := scan(nil, fleet)

	cold, coldRaw := scan(open(dir, hash), fleet)
	if !bytes.Equal(coldRaw, baseRaw) {
		t.Error("cold-store report bytes diverge from store-less scan")
	}
	if cold.StoreHits != 0 || cold.StoreInvalidated != 0 {
		t.Errorf("cold scan: hits %d, invalidated %d, want 0/0",
			cold.StoreHits, cold.StoreInvalidated)
	}
	if cold.StoreMisses != consults(cold) {
		t.Errorf("cold scan: misses %d, want %d (CVEs %d × 2 × unique %d)",
			cold.StoreMisses, consults(cold), cold.CVEs, cold.UniqueFuncs)
	}
	// The cloned library makes duplication real: shared work must show up.
	if cold.PairsDeduped == 0 || cold.ValidationsDeduped == 0 {
		t.Errorf("cloned fleet shared no work: pairs deduped %d, validations deduped %d",
			cold.PairsDeduped, cold.ValidationsDeduped)
	}

	// Warm rescan, fresh analyzer and fresh store handle: all disk, no
	// recompute, identical bytes.
	warm, warmRaw := scan(open(dir, hash), fleet)
	if !bytes.Equal(warmRaw, baseRaw) {
		t.Error("warm-store report bytes diverge from store-less scan")
	}
	if warm.StoreMisses != 0 || warm.StoreInvalidated != 0 {
		t.Errorf("warm scan: misses %d, invalidated %d, want 0/0",
			warm.StoreMisses, warm.StoreInvalidated)
	}
	if warm.StoreHits != consults(warm) {
		t.Errorf("warm scan: hits %d, want %d", warm.StoreHits, consults(warm))
	}

	// Mutate the fleet: flip one rodata byte in the clone. Only the clone's
	// memory-touching closures get new content addresses; the warm store
	// answers everything else.
	mutated := *clone
	mutated.Rodata = append([]byte(nil), clone.Rodata...)
	if len(mutated.Rodata) == 0 {
		t.Fatal("fixture image has no rodata; mutation fixture is vacuous")
	}
	mutated.Rodata[0] ^= 0x01
	mfleet := *fleet
	mfleet.Images = append(append([]*binimg.Image{}, fleet.Images[:len(fleet.Images)-1]...), &mutated)

	before := uniqueAddrs(t, fleet)
	after := uniqueAddrs(t, &mfleet)
	var changed int64
	for a := range after {
		if _, ok := before[a]; !ok {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("rodata mutation changed no content address; fixture is vacuous")
	}
	if changed >= int64(len(after)) {
		t.Fatalf("rodata mutation changed every address (%d); delta assertion is vacuous", changed)
	}

	delta, _ := scan(open(dir, hash), &mfleet)
	wantMisses := int64(delta.CVEs) * 2 * changed
	if delta.StoreMisses != wantMisses {
		t.Errorf("delta scan: misses %d, want %d (changed unique funcs %d)",
			delta.StoreMisses, wantMisses, changed)
	}
	if delta.StoreHits != consults(delta)-wantMisses {
		t.Errorf("delta scan: hits %d, want %d", delta.StoreHits, consults(delta)-wantMisses)
	}
	if delta.StoreInvalidated != 0 {
		t.Errorf("delta scan: invalidated %d, want 0", delta.StoreInvalidated)
	}

	// A store written by another model version answers nothing: every
	// consult is an invalidation, every score is recomputed, and the bytes
	// still match.
	stale, staleRaw := scan(open(dir, "sha256:other-model"), fleet)
	if !bytes.Equal(staleRaw, baseRaw) {
		t.Error("stale-store report bytes diverge from store-less scan")
	}
	if stale.StoreInvalidated != consults(stale) {
		t.Errorf("stale scan: invalidated %d, want %d", stale.StoreInvalidated, consults(stale))
	}
	if stale.StoreHits != 0 {
		t.Errorf("stale scan: hits %d, want 0", stale.StoreHits)
	}

	// Prefilter × store: a prefiltered scan against the warm store consults
	// less (pruned cells never reach the store) but must produce the same
	// bytes as every other configuration.
	anPre := NewAnalyzer(model, db)
	anPre.Workers = 4
	anPre.Store = open(dir, hash)
	preReport, err := anPre.ScanFirmware(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	preStats := preReport.Stats
	normalizeReport(preReport)
	preRaw, err := json.Marshal(preReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preRaw, baseRaw) {
		t.Error("prefiltered warm-store report bytes diverge from store-less full grid")
	}
	if preStats.CellsPruned == 0 {
		t.Error("prefiltered warm-store scan pruned nothing")
	}
	if total := preStats.StoreHits + preStats.StoreMisses + preStats.StoreInvalidated; total >= consults(preStats) {
		t.Errorf("prefiltered scan consulted the store %d times, want fewer than the full grid's %d",
			total, consults(preStats))
	}
}

// TestScanImageScalarMatchesBatched pins the batched static stage and the
// deduplicated validation against the every-pair reference implementations
// on the golden seed-42 fixture: every cell the prefilter keeps must equal
// the scalar Model.Candidates plus dynamic.ValidateParallel oracle.
func TestScanImageScalarMatchesBatched(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	scanCellsAgainstOracle(t, model, db, fw)
}

// TestDedupOffMatchesOn holds the dedup contract on the cloned fleet, which
// has real cross-image duplication: every kept cell scanned through the
// shared dedup tables equals the every-pair oracle that scores and validates
// each cell on its own, and the shared work is really there.
func TestDedupOffMatchesOn(t *testing.T) {
	model, db, fleet, _ := dedupFleet(t)
	for workers, dc := range scanCellsAgainstOracle(t, model, db, fleet) {
		if dc.PairsDeduped == 0 || dc.ValidationsDeduped == 0 {
			t.Errorf("workers=%d: cloned fleet shared no work: pairs deduped %d, validations deduped %d",
				workers, dc.PairsDeduped, dc.ValidationsDeduped)
		}
	}
}

// scanCellsAgainstOracle checks every cell the prefilter keeps — each
// (image, CVE, query mode) of fw — at Workers 1 and 4: ScanImage's candidate
// list must equal Model.Candidates on the raw vectors, order included, and
// its validation outcome must equal every candidate executed independently
// (see checkOracle). Each worker count scans on a fresh analyzer, so the
// dedup tables start cold and fill across cells exactly as they do in a
// firmware scan; the analyzer's dedup totals are returned per worker count.
func scanCellsAgainstOracle(t *testing.T, model *Model, db *DB, fw *Firmware) map[int]DedupCounts {
	t.Helper()
	ctx := context.Background()
	keep := NewAnalyzer(model, db)
	cells := keptCells(t, keep, fw)
	oracles := make([]*CVEScan, len(cells))
	for i, c := range cells {
		oracles[i] = everyPairScan(t, keep, c.p, c.cve, c.mode)
	}
	counts := make(map[int]DedupCounts)
	for _, workers := range []int{1, 4} {
		an := NewAnalyzer(model, db)
		an.Workers = workers
		for i, c := range cells {
			label := fmt.Sprintf("workers=%d %s/%s/%v", workers, c.p.Image.LibName, c.cve, c.mode)
			got, err := an.ScanImage(ctx, c.p, c.cve, c.mode)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkOracle(t, label, got, oracles[i])
		}
		counts[workers] = an.DedupCounts()
	}
	return counts
}

// cell is one (image, CVE, query mode) cell of a scan grid.
type cell struct {
	p    *PreparedImage
	cve  string
	mode QueryMode
}

// keptCells prepares fw's images and lists every cell an's prefilter keeps,
// in grid order.
func keptCells(t *testing.T, an *Analyzer, fw *Firmware) []cell {
	t.Helper()
	prepared, err := PrepareImages(context.Background(), fw.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	for _, p := range prepared {
		for _, id := range an.db.IDs() {
			if an.PrefilterKeep(p, id) {
				for _, mode := range []QueryMode{QueryVulnerable, QueryPatched} {
					cells = append(cells, cell{p, id, mode})
				}
			}
		}
	}
	if len(cells) == 0 {
		t.Fatal("prefilter kept no cells")
	}
	return cells
}

// TestMemoizedRankAndVerdictMatchFresh is the oracle for the ranking
// distances and verdicts memoized on dedup rows. The golden fixture is
// scanned twice on one shared cache, at Workers 1 and then 4, so the second
// scan is served from warm rows; after each firmware scan every kept cell is
// scanned alone through ScanImage on the same cache. Every matched cell,
// and every matched result of both reports, must carry the ranking
// dynamic.Rank computes with SimilarityEnv from the cell's own published
// RefProfiles and SurvivorProfiles, and the verdict diffengine.Decide
// reaches on freshly extracted static vectors and signatures. Both reports
// keep the golden bytes.
func TestMemoizedRankAndVerdictMatchFresh(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keep := NewAnalyzer(model, db)
	cells := keptCells(t, keep, fw)
	images := make(map[string]*PreparedImage)
	for _, c := range cells {
		images[c.p.Image.LibName] = c.p
	}

	// fresh holds a CVE's vulnerable and patched references, in that order,
	// with profiles derived outside any analyzer cache.
	type fresh struct {
		refs  [2]*vulndb.Ref
		profs [2][]Profile
	}
	refs := make(map[string]*fresh)
	freshRefs := func(cveID, arch string) *fresh {
		t.Helper()
		if f, ok := refs[cveID]; ok {
			return f
		}
		entry, _ := db.Get(cveID)
		f := &fresh{}
		for k, mode := range []QueryMode{QueryVulnerable, QueryPatched} {
			ref, err := refFor(entry, arch, mode)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := profileReference(ctx, ref, entry.Environments(), dynamic.Exec{Steps: keep.StepLimit})
			if err != nil {
				t.Fatal(err)
			}
			f.refs[k], f.profs[k] = ref, prof
		}
		refs[cveID] = f
		return f
	}

	matched := 0
	check := func(label string, scan *CVEScan) {
		t.Helper()
		if scan == nil || !scan.Matched {
			return
		}
		matched++
		cands := make(map[int][]EnvProfile)
		for i, addr := range scan.CandidateAddr {
			if eps, ok := scan.SurvivorProfiles[addr]; ok {
				cands[i] = eps
			}
		}
		var ranking []RankedMatch
		for _, r := range dynamic.Rank(cands, func(_ int, eps []EnvProfile) float64 {
			sim, _ := dynamic.SimilarityEnv(scan.RefProfiles, eps)
			return sim
		}) {
			ranking = append(ranking, RankedMatch{Addr: scan.CandidateAddr[r.Index], Sim: r.Sim, Completed: r.Completed, Envs: r.Envs})
		}
		if !reflect.DeepEqual(scan.Ranking, ranking) {
			t.Errorf("%s: ranking %+v, want %+v recomputed from the published profiles", label, scan.Ranking, ranking)
		}

		p := images[scan.Library]
		var target *disasm.Function
		for _, fn := range p.Dis.Funcs {
			if fn.Addr == scan.Match.Addr {
				target = fn
			}
		}
		f := freshRefs(scan.CVE, p.Image.Arch)
		want := diffengine.Decide(diffengine.Inputs{
			VulnStatic:      f.refs[0].StaticVec(),
			PatchedStatic:   f.refs[1].StaticVec(),
			TargetStatic:    features.Extract(p.Dis, target),
			VulnProfiles:    f.profs[0],
			PatchedProfiles: f.profs[1],
			TargetProfiles:  dynamic.Vectors(scan.SurvivorProfiles[scan.Match.Addr]),
			VulnSig:         diffengine.SigOf(f.refs[0].Fn),
			PatchedSig:      diffengine.SigOf(f.refs[1].Fn),
			TargetSig:       diffengine.SigOf(target),
		})
		if !reflect.DeepEqual(scan.Verdict, want) {
			t.Errorf("%s: verdict %+v, want %+v decided afresh", label, scan.Verdict, want)
		}
	}

	shared := &RefCache{}
	for _, workers := range []int{1, 4} {
		an := NewAnalyzer(model, db)
		an.Workers = workers
		an.SharedCache = shared
		report, err := an.ScanFirmware(ctx, fw)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range db.IDs() {
			check(fmt.Sprintf("workers=%d report %s", workers, id), report.Results[id])
		}
		if !bytes.Equal(normalizedJSON(t, report), golden) {
			t.Errorf("workers=%d: report bytes diverge from golden", workers)
		}
		for _, c := range cells {
			scan, err := an.ScanImage(ctx, c.p, c.cve, c.mode)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("workers=%d cell %s/%s/%v", workers, c.p.Image.LibName, c.cve, c.mode), scan)
		}
	}
	if matched == 0 {
		t.Fatal("no matched cell; the oracle is vacuous")
	}
	t.Logf("%d matched cells checked", matched)
}

// checkOracle compares the CVEScan fields the static and validation stages
// fill — CandidateAddr (order included), NumExecuted, Excluded and
// SurvivorProfiles — against the every-pair oracle's.
func checkOracle(t *testing.T, label string, got, want *CVEScan) {
	t.Helper()
	if !reflect.DeepEqual(got.CandidateAddr, want.CandidateAddr) ||
		got.NumExecuted != want.NumExecuted ||
		!reflect.DeepEqual(got.Excluded, want.Excluded) ||
		!reflect.DeepEqual(got.SurvivorProfiles, want.SurvivorProfiles) {
		t.Errorf("%s: scan diverges from the every-pair oracle:\n"+
			" got candidates %#x executed %d excluded %v\n"+
			"want candidates %#x executed %d excluded %v",
			label, got.CandidateAddr, got.NumExecuted, got.Excluded,
			want.CandidateAddr, want.NumExecuted, want.Excluded)
	}
}

// everyPairScan is the oracle for one cell under an's model, database and
// step limit: the scalar static stage (Model.Candidates on the raw vectors)
// and every candidate validated independently (dynamic.ValidateParallel),
// reported in the CVEScan fields ScanImage fills from them.
func everyPairScan(t *testing.T, an *Analyzer, p *PreparedImage, cveID string, mode QueryMode) *CVEScan {
	t.Helper()
	entry, ok := an.db.Get(cveID)
	if !ok {
		t.Fatalf("unknown CVE %s", cveID)
	}
	ref, err := refFor(entry, p.Image.Arch, mode)
	if err != nil {
		t.Fatal(err)
	}
	scan := &CVEScan{}
	cands := an.model.Candidates(ref.StaticVec(), p.Vecs)
	if len(cands) == 0 {
		return scan
	}
	candFuncs := make([]*disasm.Function, len(cands))
	for i, c := range cands {
		candFuncs[i] = p.Dis.Funcs[c.Index]
		scan.CandidateAddr = append(scan.CandidateAddr, candFuncs[i].Addr)
	}
	survivors, profiles, excluded := dynamic.ValidateParallel(context.Background(), p.Dis, candFuncs,
		entry.Environments(), dynamic.Exec{Steps: an.StepLimit}, 1)
	scan.NumExecuted = len(survivors)
	if len(excluded) > 0 {
		scan.Excluded = make(map[uint64]string, len(excluded))
		for idx, reason := range excluded {
			scan.Excluded[candFuncs[idx].Addr] = reason.Error()
		}
	}
	scan.SurvivorProfiles = make(map[uint64][]EnvProfile, len(profiles))
	for idx, eps := range profiles {
		scan.SurvivorProfiles[candFuncs[idx].Addr] = eps
	}
	return scan
}
