package emu_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/corpus"
	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/fuzz"
	"repro/internal/isa"
	"repro/internal/minic"
)

// corpusSeed fixes the vulnerability DB (and so its fuzzer-derived
// environments) and the training libraries the corpus-wide tests run.
const corpusSeed = 42

// corpusStepLimit is the fuzzer's per-execution budget.
const corpusStepLimit = 1 << 18

// corpusCase is one source module of the corpus, the function the tests
// call in it, and the environments it runs under.
type corpusCase struct {
	name  string
	mod   *minic.Module
	fname string
	envs  []*minic.Env
}

var (
	corpusOnce  sync.Once
	corpusCases []corpusCase
	corpusErr   error
)

// loadCorpus builds the corpus cases once per test binary: every CVE pair's
// vulnerable and patched function under fuzz.SeedEnv plus the entry's stored
// environments, and every function of the tiny-scale training libraries
// under fuzz.SeedEnv plus one DB entry's environments (round-robin).
func loadCorpus(t *testing.T) []corpusCase {
	t.Helper()
	corpusOnce.Do(func() {
		db, err := corpus.BuildDB(corpus.ScaleTiny, corpusSeed)
		if err != nil {
			corpusErr = err
			return
		}
		envsOf := func(i int) []*minic.Env {
			e := db.Entries[i%len(db.Entries)]
			return append([]*minic.Env{fuzz.SeedEnv(64)}, e.Environments()...)
		}
		for i, pair := range minic.CVEs() {
			for _, v := range []struct {
				tag string
				fn  *minic.Func
			}{{"vuln", pair.Vulnerable}, {"patched", pair.Patched}} {
				corpusCases = append(corpusCases, corpusCase{
					name:  pair.ID + "." + v.tag,
					mod:   &minic.Module{Name: pair.Library + "." + v.tag, Funcs: []*minic.Func{v.fn}},
					fname: pair.FuncName,
					envs:  envsOf(i),
				})
			}
		}
		n := 0
		for li := 0; li < corpus.ScaleTiny.NumLibs; li++ {
			mod := minic.GenLibrary(minic.GenConfig{
				Seed:     corpusSeed + int64(li)*7919,
				Name:     fmt.Sprintf("libtrain%03d", li),
				NumFuncs: corpus.ScaleTiny.FuncsPerLib,
			})
			for _, f := range mod.Funcs {
				corpusCases = append(corpusCases, corpusCase{
					name:  mod.Name + "." + f.Name,
					mod:   mod,
					fname: f.Name,
					envs:  envsOf(n),
				})
				n++
			}
		}
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusCases
}

type buildKey struct {
	mod  *minic.Module
	arch *isa.Arch
	lvl  compiler.Level
}

// compiled caches each (module, arch, level) disassembly across tests.
var compiled = map[buildKey]*disasm.Disassembly{}

func disassemble(t *testing.T, mod *minic.Module, arch *isa.Arch, lvl compiler.Level) *disasm.Disassembly {
	t.Helper()
	key := buildKey{mod, arch, lvl}
	if dis, ok := compiled[key]; ok {
		return dis
	}
	im, err := compiler.Compile(mod, arch, lvl)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := disasm.Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	compiled[key] = dis
	return dis
}

// hashExecution folds everything observable about one execution into h:
// return value, trap kind and address, the 21-entry dynamic feature vector,
// the sorted set of executed instruction addresses and the final data
// region.
func hashExecution(h hash.Hash, res *emu.Result, err error) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	trapKind, trapAddr := int64(-1), int64(0)
	if err != nil {
		if tr, ok := minic.IsTrap(err); ok {
			trapKind, trapAddr = int64(tr.Kind), tr.Addr
		} else {
			trapKind = -2
		}
	}
	put(uint64(trapKind))
	put(uint64(trapAddr))
	if res == nil {
		put(0)
		return
	}
	put(1)
	put(uint64(res.Ret))
	for _, v := range res.Trace.Vector() {
		put(math.Float64bits(v))
	}
	pcs := make([]uint64, 0, 64)
	for pc := range res.Trace.PCs() {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	put(uint64(len(pcs)))
	for _, pc := range pcs {
		put(pc)
	}
	h.Write(res.Mem())
}

// TestCorpusExecutionDigest pins the emulator's observable behaviour over
// the whole corpus: every corpus function on every architecture at every
// optimization level under its fuzz seed environments. Each module's
// executions hash to one line of testdata/corpus_digest.txt; a memory or
// trace refactoring must leave every line unchanged. Regenerate (only for
// an intentional semantic change) with
//
//	PATCHECKO_UPDATE_GOLDEN=1 go test ./internal/emu/ -run TestCorpusExecutionDigest
func TestCorpusExecutionDigest(t *testing.T) {
	var lines []string
	execs := 0
	for _, c := range loadCorpus(t) {
		h := sha256.New()
		for _, arch := range isa.All() {
			for _, lvl := range compiler.Levels() {
				dis := disassemble(t, c.mod, arch, lvl)
				fn, ok := dis.Lookup(c.fname)
				if !ok {
					t.Fatalf("%s: %s missing on %s/%s", c.name, c.fname, arch.Name, lvl)
				}
				for _, env := range c.envs {
					res, err := emu.Execute(dis, fn, env, corpusStepLimit)
					hashExecution(h, res, err)
					execs++
				}
			}
		}
		lines = append(lines, fmt.Sprintf("%s %x", c.name, h.Sum(nil)))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "corpus_digest.txt")
	if os.Getenv("PATCHECKO_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d executions)", path, execs)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest (run with PATCHECKO_UPDATE_GOLDEN=1 to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("digest has %d modules, corpus has %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("emulator behaviour changed:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}

// compatibleTraps tolerates the failure-mode differences that are
// legitimate between source steps and machine instructions: when either
// side hits a resource budget (step limit, stack budget) the other may have
// raced past it into the underlying fault first. Genuine faults (OOB vs
// div-zero) must match exactly.
func compatibleTraps(a, b minic.TrapKind) bool {
	limitish := func(k minic.TrapKind) bool {
		return k == minic.TrapStack || k == minic.TrapStepLimit
	}
	return a == b || limitish(a) || limitish(b)
}

// checkAgainstInterp compares the emulator with the reference interpreter
// (whose flat memory is the semantics the emulator's address space must
// reproduce) for fname in mod on every architecture at the given levels:
// the same return value and final data region on clean runs, compatible
// trap kinds otherwise.
func checkAgainstInterp(t *testing.T, name string, mod *minic.Module, fname string, envs []*minic.Env, levels []compiler.Level) {
	t.Helper()
	nparams := len(mod.Lookup(fname).Params)
	for ei, env := range envs {
		e := env.Clone()
		if len(e.Args) > nparams {
			e.Args = e.Args[:nparams]
		}
		want, werr := minic.Run(mod, fname, e.Clone(), corpusStepLimit)
		for _, arch := range isa.All() {
			for _, lvl := range levels {
				dis := disassemble(t, mod, arch, lvl)
				got, gerr := emu.ExecuteByName(dis, fname, e, 1<<22)
				if (werr == nil) != (gerr == nil) {
					t.Errorf("%s %s/%s env%d: interp err=%v, emu err=%v", name, arch.Name, lvl, ei, werr, gerr)
					continue
				}
				if werr != nil {
					wt, _ := minic.IsTrap(werr)
					gt, ok := minic.IsTrap(gerr)
					if !ok || !compatibleTraps(wt.Kind, gt.Kind) {
						t.Errorf("%s %s/%s env%d: interp trap %v, emu %v", name, arch.Name, lvl, ei, werr, gerr)
					}
					continue
				}
				if got.Ret != want.Ret {
					t.Errorf("%s %s/%s env%d: ret %d, interp says %d", name, arch.Name, lvl, ei, got.Ret, want.Ret)
				}
				if string(got.Mem()) != string(want.Mem) {
					t.Errorf("%s %s/%s env%d: final data region differs from interpreter", name, arch.Name, lvl, ei)
				}
			}
		}
	}
}

// TestCorpusAgainstInterpreter runs every corpus module through the
// emulator-vs-interpreter comparison.
func TestCorpusAgainstInterpreter(t *testing.T) {
	for _, c := range loadCorpus(t) {
		checkAgainstInterp(t, c.name, c.mod, c.fname, c.envs, compiler.Levels())
	}
}
