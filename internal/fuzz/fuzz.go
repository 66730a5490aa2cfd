// Package fuzz derives execution environments for dynamic analysis. It is
// the stand-in for the paper's use of LibFuzzer: a seeded, mutation-based,
// coverage-guided loop that produces a set of diverse inputs under which the
// reference function(s) execute cleanly. The paper generates inputs for the
// CVE function with LibFuzzer and "tested that these inputs worked with both
// the vulnerable and patched functions"; Environments enforces exactly that
// by requiring every emitted environment to run trap-free on every supplied
// reference function.
package fuzz

import (
	"math/rand"

	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/minic"
)

// Config controls environment generation.
type Config struct {
	Seed int64
	// NumEnvs is how many execution environments to emit (the paper's K).
	NumEnvs int
	// MaxIters bounds the mutation loop.
	MaxIters int
	// StepLimit bounds each trial execution.
	StepLimit int64
	// DataLen is the size of the input buffer mapped at minic.DataBase.
	DataLen int
}

// DefaultConfig returns sensible defaults (K=4 environments).
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, NumEnvs: 4, MaxIters: 400, StepLimit: 1 << 18, DataLen: 64}
}

// argMutationBound caps scalar-argument mutations. Arguments model lengths,
// counts and indexes; the harness keeps them in the plausible "valid value"
// range the paper mentions choosing for its execution environments.
const argMutationBound = 96

// Ref is one reference function to which every environment must be benign.
type Ref struct {
	Dis *disasm.Disassembly
	Fn  *disasm.Function
}

// SeedEnv returns the canonical starting environment used across the
// corpus: pointer to the data buffer, a buffer-sized length, and two small
// scalars, with a gently structured buffer (small leading length field,
// non-zero tail).
func SeedEnv(dataLen int) *minic.Env {
	if dataLen <= 0 {
		dataLen = 64
	}
	data := make([]byte, dataLen)
	data[0] = 4
	for i := 4; i < dataLen; i++ {
		data[i] = 1
	}
	return &minic.Env{
		Args: []int64{minic.DataBase, int64(dataLen), 3, 2},
		Data: data,
	}
}

// Environments runs the coverage-guided loop and returns up to
// cfg.NumEnvs environments, each of which executes every reference cleanly.
// The first returned environment is always the (validated) seed.
func Environments(refs []Ref, cfg Config) []*minic.Env {
	if cfg.NumEnvs <= 0 {
		cfg.NumEnvs = 4
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 400
	}
	if cfg.DataLen <= 0 {
		cfg.DataLen = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	coverage := make(map[uint64]struct{})
	returns := make(map[int64]struct{})

	// tryEnv executes env on every reference; it returns whether all ran
	// cleanly and whether the run discovered new behaviour.
	tryEnv := func(env *minic.Env) (clean, interesting bool) {
		newCov := false
		for _, ref := range refs {
			res, err := emu.Execute(ref.Dis, ref.Fn, env, cfg.StepLimit)
			if err != nil {
				return false, false
			}
			for pc := range res.Trace.PCs() {
				if _, ok := coverage[pc]; !ok {
					coverage[pc] = struct{}{}
					newCov = true
				}
			}
			if _, ok := returns[res.Ret]; !ok {
				returns[res.Ret] = struct{}{}
				newCov = true
			}
		}
		return true, newCov
	}

	seed := SeedEnv(cfg.DataLen)
	var out []*minic.Env
	var pool []*minic.Env
	if clean, _ := tryEnv(seed); clean {
		out = append(out, seed)
		pool = append(pool, seed)
	}
	if len(pool) == 0 {
		// The references crash even on the seed; nothing can be profiled.
		return nil
	}

	for iter := 0; iter < cfg.MaxIters && len(out) < cfg.NumEnvs; iter++ {
		parent := pool[rng.Intn(len(pool))]
		child := mutate(parent, rng)
		clean, interesting := tryEnv(child)
		if !clean {
			continue
		}
		pool = append(pool, child)
		if interesting {
			out = append(out, child)
		}
	}
	// If coverage saturated before reaching NumEnvs, top up with clean
	// mutants so callers still get K environments.
	for iter := 0; iter < cfg.MaxIters && len(out) < cfg.NumEnvs; iter++ {
		child := mutate(pool[rng.Intn(len(pool))], rng)
		if clean, _ := tryEnv(child); clean {
			out = append(out, child)
		}
	}
	if len(out) > cfg.NumEnvs {
		out = out[:cfg.NumEnvs]
	}
	return out
}

// mutate produces a child environment: byte-level buffer mutations plus
// occasional small scalar-argument tweaks.
func mutate(parent *minic.Env, rng *rand.Rand) *minic.Env {
	child := parent.Clone()
	nMut := 1 + rng.Intn(8)
	for i := 0; i < nMut; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // flip random byte
			if len(child.Data) > 0 {
				child.Data[rng.Intn(len(child.Data))] ^= byte(1 << rng.Intn(8))
			}
		case 4, 5: // overwrite with random byte
			if len(child.Data) > 0 {
				child.Data[rng.Intn(len(child.Data))] = byte(rng.Intn(256))
			}
		case 6: // splice a small run
			if len(child.Data) > 4 {
				at := rng.Intn(len(child.Data) - 4)
				v := byte(rng.Intn(256))
				for k := 0; k < 4; k++ {
					child.Data[at+k] = v
				}
			}
		case 7: // tweak the length-like argument
			if len(child.Args) > 1 {
				child.Args[1] = int64(rng.Intn(argMutationBound))
			}
		default: // tweak a trailing scalar argument within the valid range
			if len(child.Args) > 2 {
				idx := 2 + rng.Intn(len(child.Args)-2)
				child.Args[idx] = int64(rng.Intn(2*argMutationBound) - argMutationBound/4)
			}
		}
	}
	return child
}
