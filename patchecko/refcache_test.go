package patchecko

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// normalizedJSON marshals a report the way the golden suite does.
func normalizedJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	normalizeReport(r)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestSharedCacheSharesSignatures pins that the prefilter signature lives
// on the shared cache: two analyzers on one cache get the same signature
// for every CVE in the DB, derived once.
func TestSharedCacheSharesSignatures(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	shared := &RefCache{}
	first, second := NewAnalyzer(model, db), NewAnalyzer(model, db)
	first.SharedCache, second.SharedCache = shared, shared
	for _, id := range db.IDs() {
		sig := first.signatureFor(id, fw.Arch)
		if sig == nil {
			t.Fatalf("%s: no signature on %s", id, fw.Arch)
		}
		if got := second.signatureFor(id, fw.Arch); got != sig {
			t.Errorf("%s: second analyzer derived its own signature", id)
		}
	}
}

// TestRefCacheInvalidateCVE pins that InvalidateCVE drops the CVE's
// reference slots, dedup-table rows and signature, and no other CVE's:
// after it, a scan on the shared cache recomputes exactly what a cold scan
// of that CVE alone would, and reuses everything else.
func TestRefCacheInvalidateCVE(t *testing.T) {
	c := &RefCache{}
	ref := refKey{cve: "CVE-A", arch: "x86", mode: QueryVulnerable, limit: 1}
	other := refKey{cve: "CVE-B", arch: "x86", mode: QueryVulnerable, limit: 1}
	c.entry(ref)
	keepRef := c.entry(other)
	c.table("CVE-A", "x86", 1).score(scoreKey{mode: QueryVulnerable}).done = true
	keepTab := c.table("CVE-B", "x86", 1)
	keepTab.score(scoreKey{mode: QueryVulnerable}).done = true
	c.InvalidateCVE("CVE-A")
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after invalidating one of two CVEs, want 2", got)
	}
	if c.entry(other) != keepRef || c.table("CVE-B", "x86", 1) != keepTab || len(keepTab.scores) != 1 {
		t.Error("InvalidateCVE dropped another CVE's slots")
	}
	if len(c.table("CVE-A", "x86", 1).scores) != 0 {
		t.Error("InvalidateCVE kept the CVE's score rows")
	}

	model, db, fw := goldenFixtures(t)
	ids := db.IDs()
	truth, ok := fw.CVETruthFor(ids[0])
	if !ok {
		t.Fatal("no ground truth")
	}
	im, _ := fw.Image(truth.Library)
	p, err := Prepare(im)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(an *Analyzer, cves ...string) []*CVEScan {
		t.Helper()
		var out []*CVEScan
		for _, id := range cves {
			s, err := an.ScanImage(context.Background(), p, id, QueryVulnerable)
			if err != nil {
				t.Fatal(err)
			}
			s.StaticTime, s.DynamicTime = 0, 0
			out = append(out, s)
		}
		return out
	}
	newAnalyzer := func(shared *RefCache) *Analyzer {
		an := NewAnalyzer(model, db)
		an.SharedCache = shared
		an.Obs = obs.New()
		return an
	}

	lone := newAnalyzer(nil)
	scan(lone, ids[0])
	if lone.Obs.Get(obs.CtrExecutions) == 0 {
		t.Fatalf("%s on %s executed nothing; the fixture no longer exercises validation", ids[0], truth.Library)
	}

	shared := &RefCache{}
	want := scan(newAnalyzer(shared), ids[0], ids[1])
	warm := newAnalyzer(shared)
	if got := scan(warm, ids[0], ids[1]); !reflect.DeepEqual(got, want) {
		t.Error("warm shared-cache scans diverge")
	}
	if d := warm.DedupCounts(); d.PairsScored != 0 || warm.Obs.Get(obs.CtrExecutions) != 0 {
		t.Errorf("warm scan recomputed: %d pairs scored, %d executions", d.PairsScored, warm.Obs.Get(obs.CtrExecutions))
	}

	sigA, sigB := warm.signatureFor(ids[0], fw.Arch), warm.signatureFor(ids[1], fw.Arch)
	if sigA == nil || sigB == nil {
		t.Fatalf("no signature for %s or %s on %s", ids[0], ids[1], fw.Arch)
	}
	shared.InvalidateCVE(ids[0])
	after := newAnalyzer(shared)
	if got := after.signatureFor(ids[0], fw.Arch); got == sigA || !reflect.DeepEqual(got, sigA) {
		t.Errorf("after InvalidateCVE: %s's signature was not derived again to an equal value", ids[0])
	}
	if after.signatureFor(ids[1], fw.Arch) != sigB {
		t.Errorf("InvalidateCVE(%s) dropped %s's signature", ids[0], ids[1])
	}
	if got := scan(after, ids[0], ids[1]); !reflect.DeepEqual(got, want) {
		t.Error("scans after InvalidateCVE diverge")
	}
	if got, want := after.DedupCounts().PairsScored, lone.DedupCounts().PairsScored; got != want {
		t.Errorf("after InvalidateCVE: %d pairs scored, want %d (a cold scan of %s alone)", got, want, ids[0])
	}
	if got, want := after.Obs.Get(obs.CtrExecutions), lone.Obs.Get(obs.CtrExecutions); got != want {
		t.Errorf("after InvalidateCVE: %d executions, want %d (a cold scan of %s alone)", got, want, ids[0])
	}
}

// TestSharedCacheSkipsCancelledValidation pins the memo rule across
// analyzers: a validation its context cut short is never served to another
// analyzer on the same cache; the next live consult executes and memoizes.
func TestSharedCacheSkipsCancelledValidation(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	id := db.IDs()[0]
	entry, _ := db.Get(id)
	truth, _ := fw.CVETruthFor(id)
	im, _ := fw.Image(truth.Library)
	p, err := Prepare(im)
	if err != nil {
		t.Fatal(err)
	}
	envs := entry.Environments()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()

	for name, dead := range map[string]context.Context{"cancelled": cancelled, "deadline": expired} {
		shared := &RefCache{}
		consult := func(ctx context.Context) (*Analyzer, bool) {
			an := NewAnalyzer(model, db)
			an.SharedCache = shared
			an.Obs = obs.New()
			row := shared.table(id, p.Image.Arch, an.StepLimit).validation(p.CAS[0])
			return an, an.sharedProfile(ctx, p.Dis, p.Dis.Funcs[0], row, envs).Ran
		}
		if _, ran := consult(dead); ran {
			t.Fatalf("%s: profiling reported Ran under a dead context", name)
		}
		second, ran := consult(context.Background())
		if !ran || second.consults.shared.Load() != 0 || second.Obs.Get(obs.CtrExecutions) == 0 {
			t.Errorf("%s: second analyzer was served the dead outcome (ran %v, shared %d, executions %d)",
				name, ran, second.consults.shared.Load(), second.Obs.Get(obs.CtrExecutions))
		}
		third, _ := consult(context.Background())
		if third.consults.shared.Load() != 1 || third.Obs.Get(obs.CtrExecutions) != 0 {
			t.Errorf("%s: live outcome not memoized (shared %d, executions %d)",
				name, third.consults.shared.Load(), third.Obs.Get(obs.CtrExecutions))
		}
	}
}

// TestSharedCacheCountsPerAnalyzer pins that analyzers scanning
// concurrently through one cache each count only their own consults: every
// report's reference-cache and dedup consult totals equal a lone scan's,
// single-flight holds across analyzers (the misses and computed scores sum
// to a lone scan's), and every report keeps the golden bytes. A later
// analyzer on the warm cache computes and executes nothing.
func TestSharedCacheCountsPerAnalyzer(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lone := NewAnalyzer(model, db)
	lone.Workers = 2
	want, err := lone.ScanFirmware(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	wantRef := want.Stats.CacheHits + want.Stats.CacheMisses
	wantPairs := lone.DedupCounts().PairsScored + lone.DedupCounts().PairsDeduped

	shared := &RefCache{}
	const n = 4
	analyzers := make([]*Analyzer, n)
	reports := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range analyzers {
		an := NewAnalyzer(model, db)
		an.Workers = 2
		an.SharedCache = shared
		analyzers[g] = an
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[g], errs[g] = an.ScanFirmware(context.Background(), fw)
		}()
	}
	wg.Wait()
	var misses, scored int64
	for g, r := range reports {
		if errs[g] != nil {
			t.Fatalf("analyzer %d: %v", g, errs[g])
		}
		if got := r.Stats.CacheHits + r.Stats.CacheMisses; got != wantRef {
			t.Errorf("analyzer %d: %d reference-cache consults (%d hits, %d misses), want %d as in a lone scan",
				g, got, r.Stats.CacheHits, r.Stats.CacheMisses, wantRef)
		}
		d := analyzers[g].DedupCounts()
		if got := d.PairsScored + d.PairsDeduped; got != wantPairs {
			t.Errorf("analyzer %d: %d score consults, want %d as in a lone scan", g, got, wantPairs)
		}
		misses += r.Stats.CacheMisses
		scored += d.PairsScored
		if !bytes.Equal(normalizedJSON(t, r), golden) {
			t.Errorf("analyzer %d: report bytes diverge from golden", g)
		}
	}
	if misses != want.Stats.CacheMisses {
		t.Errorf("%d reference misses across analyzers, want %d (single-flight)", misses, want.Stats.CacheMisses)
	}
	if want := lone.DedupCounts().PairsScored; scored != want {
		t.Errorf("%d pairs scored across analyzers, want %d (single-flight)", scored, want)
	}

	warm := NewAnalyzer(model, db)
	warm.Workers = 2
	warm.SharedCache = shared
	warm.Obs = obs.New()
	r, err := warm.ScanFirmware(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Obs.Get(obs.CtrExecutions); got != 0 || r.Stats.CacheMisses != 0 || warm.DedupCounts().PairsScored != 0 {
		t.Errorf("warm rescan recomputed: %d executions, %d reference misses, %d pairs scored",
			got, r.Stats.CacheMisses, warm.DedupCounts().PairsScored)
	}
	if !bytes.Equal(normalizedJSON(t, r), golden) {
		t.Error("warm rescan diverges from golden")
	}
}
