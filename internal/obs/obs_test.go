package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSinkIsNoop pins the disabled-by-default contract: every method is
// safe and inert on a nil receiver.
func TestNilSinkIsNoop(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Error("nil sink reports Enabled")
	}
	m.Add(CtrPairsScored, 42)
	m.AddStage(StageStatic, time.Second)
	m.Emit(Event{Kind: EvScanStarted})
	if got := m.Get(CtrPairsScored); got != 0 {
		t.Errorf("nil Get = %d, want 0", got)
	}
	if got := m.StageNs(StageStatic); got != 0 {
		t.Errorf("nil StageNs = %d, want 0", got)
	}
	if evs := m.Events(); evs != nil {
		t.Errorf("nil Events = %v, want nil", evs)
	}
	if d := m.Dropped(); d != 0 {
		t.Errorf("nil Dropped = %d, want 0", d)
	}
	var buf bytes.Buffer
	if err := m.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL wrote %q, err %v", buf.String(), err)
	}
	// Counters and Manifest still produce a complete (all-zero) view.
	ctrs := m.Counters()
	if len(ctrs) != int(NumCounters) {
		t.Errorf("nil Counters has %d entries, want %d", len(ctrs), NumCounters)
	}
	man := m.Manifest(RunInfo{Tool: "t"})
	if man.Counters["pairs_scored"] != 0 || len(man.Stages) != int(NumStages) {
		t.Errorf("nil Manifest malformed: %+v", man)
	}
}

// TestCountersAndStages exercises the live sink's aggregation, including
// concurrent adds.
func TestCountersAndStages(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Add(CtrPairsScored, 2)
				m.AddStage(StageDynamic, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Get(CtrPairsScored); got != 16000 {
		t.Errorf("CtrPairsScored = %d, want 16000", got)
	}
	if got := m.StageNs(StageDynamic); got != 8000 {
		t.Errorf("StageNs(dynamic) = %d, want 8000", got)
	}
	if got := m.Counters()["pairs_scored"]; got != 16000 {
		t.Errorf("Counters()[pairs_scored] = %d, want 16000", got)
	}
	if !m.Enabled() {
		t.Error("live sink reports disabled")
	}
}

// TestCounterAndStageNames pins every enum value to a stable name — the
// manifest schema later PRs diff against.
func TestCounterAndStageNames(t *testing.T) {
	seen := make(map[string]bool)
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.Contains(name, "?") {
			t.Errorf("counter %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if Counter(-1).String() != "counter(?)" || NumCounters.String() != "counter(?)" {
		t.Error("out-of-range counters must render as counter(?)")
	}
	for s := Stage(0); s < NumStages; s++ {
		if name := s.String(); name == "" || strings.Contains(name, "?") {
			t.Errorf("stage %d has no name", s)
		}
	}
	if Stage(-1).String() != "stage(?)" || NumStages.String() != "stage(?)" {
		t.Error("out-of-range stages must render as stage(?)")
	}
}

// TestRingRetainsAndDrops checks the bounded ring: seq numbers are global,
// the newest events win, and the drop count is exact.
func TestRingRetainsAndDrops(t *testing.T) {
	m := NewTraced(4)
	for i := 0; i < 10; i++ {
		m.Emit(Event{Kind: EvCellCompleted, Pairs: i})
	}
	evs := m.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(6 + i)
		if ev.Seq != wantSeq || ev.Pairs != 6+i {
			t.Errorf("event %d = seq %d pairs %d, want seq %d pairs %d",
				i, ev.Seq, ev.Pairs, wantSeq, 6+i)
		}
	}
	if d := m.Dropped(); d != 6 {
		t.Errorf("Dropped = %d, want 6", d)
	}
}

// TestRingGrowsOnDemand checks that a traced sink allocates events only as
// they are emitted: a fresh default-cap ring holds none, a few events hold a
// few, and a small-cap ring still fills to its cap, wraps and counts drops.
func TestRingGrowsOnDemand(t *testing.T) {
	m := NewTraced(DefaultTraceCap)
	if n := cap(m.ring.buf); n != 0 {
		t.Fatalf("fresh ring preallocated %d events, want 0", n)
	}
	for i := 0; i < 3; i++ {
		m.Emit(Event{Kind: EvCellCompleted, Pairs: i})
	}
	if n := cap(m.ring.buf); n < 3 || n > 64 {
		t.Errorf("ring holding 3 events has room for %d", n)
	}

	small := NewTraced(3)
	for i := 0; i < 2; i++ {
		small.Emit(Event{Kind: EvCellCompleted, Pairs: i})
	}
	if evs := small.Events(); len(evs) != 2 || evs[0].Seq != 0 || evs[1].Seq != 1 || small.Dropped() != 0 {
		t.Fatalf("partly filled ring: %d events, %d dropped, want 2 / 0", len(evs), small.Dropped())
	}
	for i := 2; i < 7; i++ {
		small.Emit(Event{Kind: EvCellCompleted, Pairs: i})
	}
	evs := small.Events()
	if len(evs) != 3 || len(small.ring.buf) != 3 {
		t.Fatalf("wrapped ring retains %d events in %d slots, want 3 / 3", len(evs), len(small.ring.buf))
	}
	for i, ev := range evs {
		if want := 4 + i; ev.Seq != uint64(want) || ev.Pairs != want {
			t.Errorf("event %d = seq %d pairs %d, want %d", i, ev.Seq, ev.Pairs, want)
		}
	}
	if d := small.Dropped(); d != 4 {
		t.Errorf("Dropped = %d, want 4", d)
	}
}

// TestEventJSONL checks the JSONL encoding round-trips, omits empty fields
// and keeps emission order.
func TestEventJSONL(t *testing.T) {
	m := NewTraced(0)
	m.Emit(Event{Kind: EvScanStarted, Device: "thingos-1.0", Arch: "xarm32", Images: 3, CVEs: 25})
	m.Emit(Event{Kind: EvCandidateExcluded, CVE: "CVE-1", Library: "lib", Mode: "vulnerable",
		Addr: 0x1000, Reason: "no environment completed"})
	m.Emit(Event{Kind: EvScanError, CVE: "CVE-2", Fail: "trap", Reason: "boom"})

	var buf bytes.Buffer
	if err := m.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	if lines[0].Kind != EvScanStarted || lines[0].Device != "thingos-1.0" || lines[0].CVEs != 25 {
		t.Errorf("line 0 round-trip drift: %+v", lines[0])
	}
	if lines[1].Kind != EvCandidateExcluded || lines[1].Addr != 0x1000 {
		t.Errorf("line 1 round-trip drift: %+v", lines[1])
	}
	if lines[2].Kind != EvScanError || lines[2].Fail != "trap" {
		t.Errorf("line 2 round-trip drift: %+v", lines[2])
	}

	// Empty fields must be omitted so traces stay compact.
	raw, _ := json.Marshal(Event{Kind: EvImagePrepared, Library: "lib", Funcs: 7})
	for _, forbidden := range []string{"cve", "reason", "addr", "confidence", "device"} {
		if bytes.Contains(raw, []byte(`"`+forbidden+`"`)) {
			t.Errorf("empty field %q not omitted: %s", forbidden, raw)
		}
	}

	// Unknown kinds fail loudly instead of decoding to garbage.
	var ev Event
	if err := json.Unmarshal([]byte(`{"seq":0,"kind":"nope"}`), &ev); err == nil {
		t.Error("unknown event kind decoded without error")
	}
	if EventKind(99).String() != "event(99)" {
		t.Errorf("out-of-range kind renders as %q", EventKind(99))
	}
}

// TestManifest checks the artifact's identity fields and snapshot totals.
func TestManifest(t *testing.T) {
	m := NewTraced(2)
	m.Add(CtrPairsScored, 800)
	m.Add(CtrStaticCandidates, 12)
	m.AddStage(StageStatic, 5*time.Millisecond)
	m.Emit(Event{Kind: EvScanStarted})
	m.Emit(Event{Kind: EvCellCompleted})
	m.Emit(Event{Kind: EvVerdictReached}) // overwrites the oldest

	man := m.Manifest(RunInfo{Tool: "test", Seed: 42, Scale: "tiny", Workers: 4, ModelHash: "sha256:ab"})
	if man.Tool != "test" || man.Seed != 42 || man.Scale != "tiny" || man.Workers != 4 {
		t.Errorf("identity fields drifted: %+v", man)
	}
	if man.GoVersion == "" || man.Revision == "" {
		t.Errorf("build identity missing: %+v", man)
	}
	if man.Counters["pairs_scored"] != 800 || man.Counters["static_candidates"] != 12 {
		t.Errorf("counters drifted: %v", man.Counters)
	}
	if man.Events != 2 || man.EventsDropped != 1 {
		t.Errorf("event accounting: got %d kept / %d dropped, want 2 / 1", man.Events, man.EventsDropped)
	}
	var staticNs int64
	for _, st := range man.Stages {
		if st.Stage == "static" {
			staticNs = st.WallNs
		}
	}
	if staticNs != int64(5*time.Millisecond) {
		t.Errorf("static stage ns = %d, want %d", staticNs, int64(5*time.Millisecond))
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteManifest(path, RunInfo{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Counters["pairs_scored"] != 800 {
		t.Errorf("written manifest drifted: %v", back.Counters)
	}
}

// TestModelHash pins the hash format (stable across runs, prefixed with the
// algorithm so it can evolve).
func TestModelHash(t *testing.T) {
	h1, h2 := ModelHash([]byte("model")), ModelHash([]byte("model"))
	if h1 != h2 {
		t.Error("ModelHash is not deterministic")
	}
	if !strings.HasPrefix(h1, "sha256:") || len(h1) != len("sha256:")+64 {
		t.Errorf("unexpected hash format %q", h1)
	}
	if ModelHash([]byte("other")) == h1 {
		t.Error("distinct inputs hash equal")
	}
}

// TestFlags drives the CLI plumbing end to end: parse, collect, write.
func TestFlags(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "m.json")
	tracePath := filepath.Join(dir, "t.jsonl")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-metrics", manifestPath, "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	if !f.Enabled() {
		t.Fatal("flags parsed but Enabled is false")
	}
	m := f.Collector()
	if m == nil || m != f.Collector() {
		t.Fatal("Collector must return one stable live sink")
	}
	m.Add(CtrVerdicts, 3)
	m.Emit(Event{Kind: EvVerdictReached, CVE: "CVE-1"})
	if err := f.Write(RunInfo{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	rawMan, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rawMan, []byte(`"verdicts": 3`)) {
		t.Errorf("manifest missing counters: %s", rawMan)
	}
	rawTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rawTrace, []byte(`"verdict_reached"`)) {
		t.Errorf("trace missing event: %s", rawTrace)
	}

	// Disabled flags: nil collector, Write is a no-op.
	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	f2 := AddFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f2.Enabled() || f2.Collector() != nil {
		t.Error("disabled flags must yield the nil no-op sink")
	}
	if err := f2.Write(RunInfo{}); err != nil {
		t.Errorf("disabled Write errored: %v", err)
	}

	// -metrics alone: counters-only sink (no ring).
	fs3 := flag.NewFlagSet("test3", flag.ContinueOnError)
	f3 := AddFlags(fs3)
	if err := fs3.Parse([]string{"-metrics", filepath.Join(dir, "m2.json")}); err != nil {
		t.Fatal(err)
	}
	m3 := f3.Collector()
	m3.Emit(Event{Kind: EvScanStarted})
	if evs := m3.Events(); len(evs) != 0 {
		t.Errorf("counters-only sink retained %d events, want 0", len(evs))
	}
	if err := f3.Write(RunInfo{Tool: "t3"}); err != nil {
		t.Fatal(err)
	}
}
