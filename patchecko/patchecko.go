// Package patchecko is the public API of the PATCHECKO reproduction: a
// vulnerability and patch-presence detection framework for stripped
// firmware binaries (Sun, Garcia, Salles-Loustau, Zonouz — "Hybrid Firmware
// Analysis for Known Mobile and IoT Security Vulnerabilities", DSN 2020).
//
// The pipeline has three stages:
//
//  1. Static stage — every function in the target image is disassembled
//     and summarized as a 48-dimensional feature vector; a trained deep
//     neural network scores each function against the CVE reference and
//     keeps the similar ones as candidates.
//  2. Dynamic stage — candidates are executed in isolation under the CVE's
//     fuzzer-derived execution environments; crashing candidates are
//     pruned, survivors are profiled into 21-dimensional dynamic feature
//     vectors, and ranked by Minkowski (p=3) distance to the reference's
//     profiles averaged over environments.
//  3. Differential stage — the top match is compared against BOTH the
//     vulnerable and the patched reference (static features, dynamic
//     similarity, differential CFG/library-call signatures) to decide
//     whether the device still carries the vulnerability.
//
// Typical use:
//
//	groups, _ := patchecko.TrainingCorpus(patchecko.ScaleSmall, 1)
//	model, hist, _, _ := patchecko.TrainDetector(groups, patchecko.DefaultTrainConfig())
//	db, _ := patchecko.BuildVulnDB(patchecko.ScaleSmall, 1)
//	fw, _ := patchecko.BuildFirmware(patchecko.ThingOS, patchecko.ScaleSmall)
//	an := patchecko.NewAnalyzer(model, db)
//	report, _ := an.ScanFirmware(context.Background(), fw)
package patchecko

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/compid"
	"repro/internal/corpus"
	"repro/internal/detector"
	"repro/internal/diffengine"
	"repro/internal/disasm"
	"repro/internal/dynamic"
	"repro/internal/features"
	"repro/internal/minic"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/vulndb"
)

// Re-exported building blocks. The aliases make the whole workflow usable
// through this single package.
type (
	// Scale sizes corpus generation and training.
	Scale = corpus.Scale
	// Device describes a target platform (architecture + patch states).
	Device = corpus.Device
	// Firmware is a device's stripped library set plus held-aside ground truth.
	Firmware = corpus.Firmware
	// Model is the trained static-stage similarity detector.
	Model = detector.Model
	// TrainConfig controls detector training.
	TrainConfig = detector.TrainConfig
	// Groups is the Dataset I feature corpus.
	Groups = detector.Groups
	// DB is the vulnerability database (Dataset II).
	DB = vulndb.DB
	// History is the per-epoch training history (Fig. 8).
	History = nn.History
	// Image is one library binary.
	Image = binimg.Image
	// Verdict is the differential engine's patch decision.
	Verdict = diffengine.Verdict
)

// Preset scales.
var (
	ScaleTiny   = corpus.ScaleTiny
	ScaleSmall  = corpus.ScaleSmall
	ScaleMedium = corpus.ScaleMedium
	ScaleLarge  = corpus.ScaleLarge
)

// The two evaluation devices.
var (
	ThingOS   = corpus.ThingOS
	Pebble2XL = corpus.Pebble2XL
)

// TrainingCorpus builds Dataset I at the given scale.
func TrainingCorpus(s Scale, seed int64) (Groups, error) {
	return corpus.TrainingGroups(s, seed)
}

// DefaultTrainConfig mirrors the paper's training setup at laptop scale.
func DefaultTrainConfig() TrainConfig { return detector.DefaultTrainConfig() }

// TrainDetector fits the 6-layer similarity network on the corpus.
func TrainDetector(groups Groups, cfg TrainConfig) (*Model, *History, *detector.Dataset, error) {
	m, h, ds, err := detector.Train(groups, cfg)
	return m, h, ds, err
}

// BuildVulnDB builds Dataset II: the 25-CVE vulnerability database.
func BuildVulnDB(s Scale, seed int64) (*DB, error) { return corpus.BuildDB(s, seed) }

// BuildFirmware builds Dataset III for a device.
func BuildFirmware(dev Device, s Scale) (*Firmware, error) {
	return corpus.BuildFirmware(dev, s)
}

// QueryMode selects which reference version drives the static search. The
// paper evaluates both (Tables VI and VII) because a scanner does not know
// a priori whether the target is patched.
type QueryMode int

// Query modes.
const (
	QueryVulnerable QueryMode = iota + 1
	QueryPatched
)

func (m QueryMode) String() string {
	if m == QueryPatched {
		return "patched"
	}
	return "vulnerable"
}

// Analyzer runs the three-stage pipeline.
type Analyzer struct {
	model *Model
	db    *DB
	// StepLimit bounds each candidate execution.
	StepLimit int64
	// Workers parallelizes the scan engine when > 1 (the paper's other
	// future-work item): ScanFirmware schedules its (image, CVE, mode)
	// grid across this many goroutines, and standalone ScanImage calls
	// validate candidates on a pool of this size. Results are bit-identical
	// to sequential scanning; only wall-clock changes.
	Workers int
	// Obs receives pipeline counters, per-stage wall-clock totals and (when
	// built with obs.NewTraced) structured trace events. Nil — the default —
	// is the no-op sink: instrumented paths cost one predicted branch and
	// zero allocations, and reports are byte-identical either way.
	Obs *obs.Metrics
	// Store, when non-nil, persists static scores by content address across
	// analyzer lifetimes — the delta-scan path: rescanning a firmware update
	// only recomputes functions whose content changed. The store is
	// versioned by model hash and corruption-tolerant; a bad or stale entry
	// is a miss, never a wrong score.
	Store *cas.Store
	// SharedCache, when non-nil, replaces the analyzer's private reference
	// cache with a process-wide one so scans by different analyzers — the
	// resident scan service's jobs — profile each CVE reference and derive
	// each prefilter signature once per process and share the dedup tables:
	// a later job scores and executes only the function bodies no earlier
	// job did. Every analyzer on one cache must use the same model
	// and DB. Results are byte-identical either way; only warmth varies
	// (Stats.CacheHits/CacheMisses and the dedup counters, which count this
	// analyzer's own consults and which Report.Normalize zeroes for
	// comparisons).
	SharedCache *RefCache
	// Prefilter — on by default via NewAnalyzer — runs the component-
	// identification prefilter (internal/compid) inside ScanFirmware's
	// grid: each prepared image is fingerprinted once, and each
	// (CVE, image) task scans the pair only if the image's fingerprint
	// matches the CVE's component signature. The keep rule is calibrated
	// recall-safe: a CVE's ground-truth host image is never pruned, and a
	// pruned lookalike never beats the host's match, so reports are
	// byte-identical with the prefilter on or off (after Normalize, which
	// zeroes the grid-scheduling accounting). The recall suite pins both
	// against the full grid rather than assuming them. A pruned cell may
	// still hold a lookalike the full grid would have matched, so a
	// single-image answer can differ. No derivable signature, a degenerate
	// signature and an armed compid.match fault keep the cell; a row with
	// no kept cell that answered — all pruned, or every kept cell failed —
	// runs its pruned cells in the reduction's rescue pass. Pruning is
	// never silent — see Stats.CellsPruned, the cells_pruned and
	// prefilter_degraded counters and the per-row prefilter trace event.
	Prefilter bool
	// StaticOnly degrades the pipeline to its static stage: candidates are
	// scored and reported, but dynamic validation and the differential
	// verdict are shed. Every scan and the Report are explicitly marked
	// Degraded — degradation is never silent. The scan service sets it
	// exactly when a submission asks for static_only.
	StaticOnly bool

	// cache is the private RefCache used when SharedCache is nil: per-CVE
	// reference work and the dedup tables.
	cache RefCache
	// consults counts this analyzer's own cache and dedup-table consults.
	consults consultCounts
}

// NewAnalyzer builds an analyzer from a trained model and a CVE database.
//
// The static and dynamic stages share per-function work by content
// address: each unique function body is statically scored once per
// CVE×mode and dynamically validated once per CVE×step-limit, with the
// result reused for every duplicate across all images scanned through the
// analyzer's reference cache — its own, or SharedCache, whose dedup tables
// every analyzer on it reads and fills. Candidate lists, validation
// outcomes and reports are exactly those of scoring and validating every
// (function, CVE) pair independently; the tests pin that against the
// every-pair reference paths (Model.Candidates, the sequential
// dynamic.Validate).
func NewAnalyzer(model *Model, db *DB) *Analyzer {
	return &Analyzer{model: model, db: db, StepLimit: 1 << 20, Prefilter: true}
}

// PreparedImage caches the static stage's per-image work (disassembly and
// feature extraction) so one image can be scanned for many CVEs. Everything
// it holds is determined by the image's content, so images with equal
// encodings may share one PreparedImage (see PrepareImages).
type PreparedImage struct {
	Image *Image
	Dis   *disasm.Disassembly
	Vecs  []features.Vector
	// CAS holds each function's content address, aligned with Dis.Funcs.
	CAS []cas.Addr

	// digest is the SHA-256 of the image's binimg encoding. It keys the
	// prefilter's memoized keep decisions.
	digest [sha256.Size]byte

	// uniq lists one representative function index per distinct content
	// address, in first-occurrence order; uniqPos maps every function to its
	// representative's position in uniq. Together they let the dedup path
	// score only unique bodies and fan the results out.
	uniq    []int
	uniqPos []int

	// Batched static stage: every unique representative's vector
	// normalized and pushed through the model's first layer once, then
	// reused across all CVEs, both query modes and every worker. Built
	// lazily under mu by the first cell that scores this image.
	mu       sync.Mutex
	utsModel *Model
	uts      *detector.TargetSet

	// fp is the image's component fingerprint for the prefilter, built
	// lazily under mu by Fingerprint and shared across every CVE row.
	fp *compid.Fingerprint
}

// UniqueTargets returns the model's precomputed first-layer target halves
// for the image's unique-representative vectors, building them on first
// use: each distinct function body goes through the model's first layer
// once. Per-vector preparation is independent, so a representative's
// halves are bit-identical to its halves in m.PrepareTargets(p.Vecs) —
// which is what keeps dedup scores equal to every-pair scores. Safe for
// concurrent use; the build is single-flighted under the image's mutex.
func (p *PreparedImage) UniqueTargets(m *Model) *detector.TargetSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.utsModel != m {
		uv := make([]features.Vector, len(p.uniq))
		for k, i := range p.uniq {
			uv[k] = p.Vecs[i]
		}
		p.uts = m.PrepareTargets(uv)
		p.utsModel = m
	}
	return p.uts
}

// Prepare disassembles the image and extracts per-function features.
func Prepare(im *Image) (*PreparedImage, error) {
	return prepare(im, binimg.Digest(im))
}

// prepare is Prepare for an image whose content digest the caller already
// computed.
func prepare(im *Image, digest [sha256.Size]byte) (*PreparedImage, error) {
	dis, err := disasm.Disassemble(im)
	if err != nil {
		return nil, fmt.Errorf("patchecko: %s: %w", im.LibName, err)
	}
	p := &PreparedImage{Image: im, Dis: dis, digest: digest}
	p.Vecs = make([]features.Vector, len(dis.Funcs))
	for i, f := range dis.Funcs {
		p.Vecs[i] = features.Extract(dis, f)
	}
	p.CAS = cas.ImageAddrs(dis, p.Vecs)
	pos := make(map[cas.Addr]int, len(p.CAS))
	p.uniqPos = make([]int, len(p.CAS))
	for i, addr := range p.CAS {
		k, ok := pos[addr]
		if !ok {
			k = len(p.uniq)
			pos[addr] = k
			p.uniq = append(p.uniq, i)
		}
		p.uniqPos[i] = k
	}
	return p, nil
}

// NumFuncs returns the number of recovered functions.
func (p *PreparedImage) NumFuncs() int { return len(p.Dis.Funcs) }

// NumUnique returns the number of distinct function content addresses in
// the image.
func (p *PreparedImage) NumUnique() int { return len(p.uniq) }

// RankedMatch is one dynamically-ranked candidate.
type RankedMatch struct {
	Addr uint64
	Sim  float64 // Minkowski similarity distance; smaller = more similar
	// Completed of Envs environments ran to completion during validation;
	// Completed < Envs marks a candidate ranked from truncated profiles.
	Completed int
	Envs      int
}

// Partial reports whether the candidate was ranked from truncated profiles.
func (m RankedMatch) Partial() bool { return m.Completed < m.Envs }

// CVEScan is the outcome of scanning one image for one CVE.
type CVEScan struct {
	CVE     string
	Library string
	Mode    QueryMode

	// Static stage.
	TotalFuncs    int
	NumCandidates int
	CandidateAddr []uint64

	// Dynamic stage.
	NumExecuted int // candidates surviving input validation
	NumPartial  int // survivors whose profiles include a trapped environment
	Ranking     []RankedMatch
	// Excluded records, per candidate address, why validation excluded it
	// (no environment completed, a worker panic, ...). The paper discards
	// these silently; keeping the reasons makes pruning auditable.
	Excluded map[uint64]string

	// Differential stage (only when a match was found).
	Matched bool
	Match   RankedMatch
	Verdict Verdict

	// Degraded marks a scan whose dynamic and differential stages were shed
	// (Analyzer.StaticOnly): the candidate list is real, but nothing was
	// validated and no verdict was attempted. Omitted from JSON when false
	// so full-pipeline reports are unchanged.
	Degraded bool `json:"Degraded,omitempty"`

	// Timings, for the paper's processing-time columns.
	StaticTime  time.Duration
	DynamicTime time.Duration
}

// TopRank returns the 1-based rank of addr in the dynamic ranking, or 0.
func (s *CVEScan) TopRank(addr uint64) int {
	for i, r := range s.Ranking {
		if r.Addr == addr {
			return i + 1
		}
	}
	return 0
}

// ScanImage runs the full pipeline for one CVE against one prepared image.
// The context cancels the scan between pipeline stages; per-CVE reference
// work is served from the analyzer's cache.
func (a *Analyzer) ScanImage(ctx context.Context, p *PreparedImage, cveID string, mode QueryMode) (*CVEScan, error) {
	return a.scanImage(ctx, p, cveID, mode, a.Workers, a.newScorer())
}

// newScorer returns a scoring context for the batched static stage. A
// Scorer is single-threaded; the scan engine calls this once per worker
// goroutine.
func (a *Analyzer) newScorer() *detector.Scorer {
	return a.model.NewScorer().Observe(a.Obs)
}

// scanImage is ScanImage with an explicit candidate-validation pool size —
// so the firmware scan grid can keep per-cell validation sequential while
// standalone ScanImage calls still parallelize it — and the caller's
// batched scoring context.
func (a *Analyzer) scanImage(ctx context.Context, p *PreparedImage, cveID string, mode QueryMode, validateWorkers int, sc *detector.Scorer) (*CVEScan, error) {
	if ctx == nil {
		//patchecko:allow ctxflow nil-ctx API tolerance: Background is the documented fallback root
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entry, ok := a.db.Get(cveID)
	if !ok {
		return nil, fmt.Errorf("patchecko: unknown CVE %s", cveID)
	}
	arch := p.Image.Arch

	scan := &CVEScan{
		CVE:        cveID,
		Library:    p.Image.LibName,
		Mode:       mode,
		TotalFuncs: len(p.Dis.Funcs),
	}

	// Stage 1: deep-learning classification. Each unique function body's
	// cached first-layer target halves are scored against the CVE's cached
	// query halves in the worker's scratch buffers, in the scalar model's
	// canonical accumulation order, so candidates — indices, exact scores,
	// order — are those of Model.Candidates on the raw vectors.
	sw := obs.StartStopwatch()
	cands, err := a.dedupCandidates(entry, arch, mode, p, sc)
	if err != nil {
		return nil, &refError{err}
	}
	scan.StaticTime = sw.Elapsed()
	a.Obs.AddStage(obs.StageStatic, scan.StaticTime)
	scan.NumCandidates = len(cands)
	for _, c := range cands {
		scan.CandidateAddr = append(scan.CandidateAddr, p.Dis.Funcs[c.Index].Addr)
	}
	if a.StaticOnly {
		scan.Degraded = true
		return scan, nil
	}
	if len(cands) == 0 {
		return scan, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: input validation + dynamic profiling + ranking.
	sw = obs.StartStopwatch()
	envs := entry.Environments()
	candFuncs := make([]*disasm.Function, len(cands))
	for i, c := range cands {
		candFuncs[i] = p.Dis.Funcs[c.Index]
	}
	survivors, profiles, excluded, rows := a.dedupValidate(ctx, p, entry, cands, candFuncs, envs, validateWorkers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scan.NumExecuted = len(survivors)
	if len(excluded) > 0 {
		scan.Excluded = make(map[uint64]string, len(excluded))
		for idx, reason := range excluded {
			scan.Excluded[candFuncs[idx].Addr] = reason.Error()
		}
	}
	refProfiles, err := a.cachedRefProfiles(ctx, entry, arch, mode, envs)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, &refError{fmt.Errorf("patchecko: %s: reference does not execute: %w", cveID, err)}
	}
	for _, ps := range profiles {
		if dynamic.Completion(ps) < len(ps) {
			scan.NumPartial++
		}
	}
	// Distances are memoized on each body's dedup row: a body ranked
	// against this reference before is not compared again.
	ranked := dynamic.Rank(profiles, func(i int, eps []dynamic.EnvProfile) float64 {
		return rows[i].distance(mode, refProfiles, eps)
	})
	for _, r := range ranked {
		scan.Ranking = append(scan.Ranking, RankedMatch{
			Addr:      candFuncs[r.Index].Addr,
			Sim:       r.Sim,
			Completed: r.Completed,
			Envs:      r.Envs,
		})
	}
	scan.DynamicTime = sw.Elapsed()
	a.Obs.AddStage(obs.StageDynamic, scan.DynamicTime)
	if len(ranked) == 0 {
		return scan, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 3: differential patch analysis on the top match. Only a
	// fully-validated match can claim one: a candidate ranked from
	// truncated profiles is reported in the ranking but is not strong
	// enough evidence to drive a patch verdict.
	top := ranked[0]
	if top.Envs == 0 || top.Completed < top.Envs {
		return scan, nil
	}
	scan.Matched = true
	scan.Match = scan.Ranking[0]
	sw = obs.StartStopwatch()
	verdict, err := a.patchVerdict(ctx, entry, arch, p, cands[top.Index].Index, rows[top.Index], profiles[top.Index], envs)
	a.Obs.AddStage(obs.StageDifferential, sw.Elapsed())
	if err != nil {
		return nil, err
	}
	scan.Verdict = verdict
	// Counted per matched cell, whether the row decided now or earlier.
	a.Obs.Add(obs.CtrVerdicts, 1)
	if verdict.Patched {
		a.Obs.Add(obs.CtrVerdictPatched, 1)
	} else {
		a.Obs.Add(obs.CtrVerdictVulnerable, 1)
	}
	return scan, nil
}

// exec bundles the analyzer's per-execution bounds for the dynamic stage.
func (a *Analyzer) exec() dynamic.Exec {
	return dynamic.Exec{Steps: a.StepLimit, Obs: a.Obs}
}

// patchVerdict runs the differential engine on the matched target function
// p.Dis.Funcs[ti], whose dedup row is row and whose profiles are eps. Both
// reference versions, their static vectors, signatures and profiles come
// from the analyzer's cache, so across a firmware scan they are derived
// once per CVE, and the target's static vector is the one Prepare
// extracted. The decision reads only the references and the target's body,
// so the row makes it once and every occurrence of that body reuses it.
func (a *Analyzer) patchVerdict(ctx context.Context, entry *vulndb.Entry, arch string, p *PreparedImage,
	ti int, row *dynEntry, eps []dynamic.EnvProfile, envs []*minic.Env) (Verdict, error) {
	vref, err := a.cachedRef(entry, arch, QueryVulnerable)
	if err != nil {
		return Verdict{}, &refError{err}
	}
	pref, err := a.cachedRef(entry, arch, QueryPatched)
	if err != nil {
		return Verdict{}, &refError{err}
	}
	vp, err := a.cachedRefProfiles(ctx, entry, arch, QueryVulnerable, envs)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Verdict{}, cerr
		}
		return Verdict{}, &refError{fmt.Errorf("patchecko: %s: vulnerable ref: %w", entry.ID, err)}
	}
	pp, err := a.cachedRefProfiles(ctx, entry, arch, QueryPatched, envs)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Verdict{}, cerr
		}
		return Verdict{}, &refError{fmt.Errorf("patchecko: %s: patched ref: %w", entry.ID, err)}
	}
	row.mu.Lock()
	defer row.mu.Unlock()
	if row.verdict == nil {
		v := diffengine.Decide(diffengine.Inputs{
			VulnStatic:      vref.vec,
			PatchedStatic:   pref.vec,
			TargetStatic:    p.Vecs[ti],
			VulnProfiles:    vp,
			PatchedProfiles: pp,
			TargetProfiles:  dynamic.Vectors(eps),
			VulnSig:         vref.sig,
			PatchedSig:      pref.sig,
			TargetSig:       diffengine.SigOf(p.Dis.Funcs[ti]),
		})
		row.verdict = &v
	}
	return *row.verdict, nil
}

func refFor(entry *vulndb.Entry, arch string, mode QueryMode) (*vulndb.Ref, error) {
	if mode == QueryPatched {
		return entry.PatchedRef(arch)
	}
	return entry.VulnRef(arch)
}

// Report is a whole-firmware scan result.
type Report struct {
	Device string
	Arch   string
	// Results is indexed by CVE id; each entry is the scan of that CVE's
	// best-matching library image. An entry is nil only when every grid
	// cell for that CVE failed — individual failures are isolated into
	// Errors and do not null out a CVE that other images answered.
	Results map[string]*CVEScan
	// Errors are the isolated failures recorded during the scan, in
	// deterministic order: image preparation failures first (in image
	// order), then grid-cell failures in sequential iteration order.
	// Identical failures observed from several cells (e.g. a broken CVE
	// reference seen by every image) are deduplicated by value.
	Errors []ScanError
	// Stats are the scan-level counters of the run that produced the
	// report (worker count, cache hits/misses, per-stage wall-clock).
	Stats ScanStats
	// Degraded marks a report produced with the dynamic and differential
	// stages shed (Analyzer.StaticOnly): every result lists static
	// candidates only, with no validation and no verdicts. The scan service
	// produces one only for a submission that sets static_only; it is never
	// set silently — a degraded report says so. Omitted from JSON when false so
	// full-pipeline reports are unchanged.
	Degraded bool `json:"Degraded,omitempty"`
}

// Normalize zeroes the Report fields that legitimately vary from run to run
// on identical inputs — wall-clock timings, the configured worker count,
// and the work-saved accounting that depends on cache warmth and the
// persistent store — so two reports of the same scan can be
// compared byte-for-byte (marshal after Normalize; encoding/json sorts map
// keys). It also zeroes the grid-scheduling accounting (cells run/pruned
// and the per-cell byproducts summed only over scheduled cells), which
// varies with the Prefilter flag while the Results and Errors it describes
// do not. Everything it leaves alone is deterministic in the scan inputs
// and configuration-independent.
func (r *Report) Normalize() {
	for _, s := range r.Results {
		if s != nil {
			s.StaticTime, s.DynamicTime = 0, 0
		}
	}
	r.Stats.PrepareWall, r.Stats.ScanWall = 0, 0
	r.Stats.Workers = 0
	r.Stats.ScansRun, r.Stats.CellsPruned = 0, 0
	r.Stats.CandidatesExcluded, r.Stats.PartialSurvivors = 0, 0
	r.Stats.CacheHits, r.Stats.CacheMisses = 0, 0
	r.Stats.PairsDeduped, r.Stats.PairsFromStore = 0, 0
	r.Stats.ValidationsDeduped = 0
	r.Stats.StoreHits, r.Stats.StoreMisses, r.Stats.StoreInvalidated = 0, 0, 0
}

// better prefers matched scans with smaller similarity distance. It is the
// comparison the firmware-scan reduction folds with, so it must be a strict
// ordering: ties return false and the earlier scan in sequential iteration
// order wins, which is what keeps parallel reduction deterministic.
func better(a, b *CVEScan) bool {
	if a.Matched != b.Matched {
		return a.Matched
	}
	if !a.Matched {
		return a.NumCandidates > b.NumCandidates
	}
	return a.Match.Sim < b.Match.Sim
}
