package emu

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// execBenchCase is one BenchmarkExecute workload: hot(p, n) in mod, run
// with p at the data region and n = iters.
type execBenchCase struct {
	name  string
	mod   *minic.Module
	iters int64
}

// execBenchCases are BenchmarkExecute's workloads. short and loop4096 run
// a memory-heavy checksum loop (the pipeline's dominant dynamic-stage
// cost): short runs about 1.3k instructions, the size of a typical
// candidate execution, so its B/op is the fixed per-execution cost;
// loop4096 runs 4096 iterations and measures the hot loop. calls runs a
// similar loop whose every iteration recurses four frames deep, so calls,
// returns and the per-frame bookkeeping are measured too.
func execBenchCases() []execBenchCase {
	checksum := &minic.Module{Name: "b", Funcs: []*minic.Func{
		minic.NewFunc("hot", []string{"p", "n"},
			minic.Set("s", minic.I(0)),
			minic.Set("i", minic.I(0)),
			minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
				minic.Set("s", minic.Xor(minic.Shl(minic.V("s"), minic.I(3)),
					minic.Ld(minic.V("p"), minic.And(minic.V("i"), minic.I(255))))),
				minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
			minic.Ret(minic.V("s"))),
	}}
	calls := &minic.Module{Name: "c", Funcs: []*minic.Func{
		minic.NewFunc("hot", []string{"p", "n"},
			minic.Set("s", minic.I(0)),
			minic.Set("i", minic.I(0)),
			minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
				minic.Set("s", minic.Xor(minic.Shl(minic.V("s"), minic.I(3)),
					minic.Call("dive", minic.V("p"), minic.V("i"), minic.I(3)))),
				minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
			minic.Ret(minic.V("s"))),
		minic.NewFunc("dive", []string{"p", "i", "d"},
			minic.When(minic.Gt(minic.V("d"), minic.I(0)),
				minic.Ret(minic.Add(minic.I(1),
					minic.Call("dive", minic.V("p"), minic.V("i"), minic.Sub(minic.V("d"), minic.I(1)))))),
			minic.Ret(minic.Ld(minic.V("p"), minic.And(minic.V("i"), minic.I(255))))),
	}}
	return []execBenchCase{
		{"short", checksum, 64},
		{"loop4096", checksum, 4096},
		{"calls", calls, 16},
	}
}

// execEntries are the two entries an execution runs through: Execute,
// whose Result takes the trace and the data pages, and Profile, which
// returns only the feature vector and keeps both in its pooled machine.
var execEntries = []struct {
	name string
	run  func(dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env) error
}{
	{"execute", func(dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env) error {
		_, err := Execute(dis, fn, env, 1<<22)
		return err
	}},
	{"profile", func(dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env) error {
		_, err := Profile(nil, dis, fn, env, 1<<22, nil)
		return err
	}},
}

// BenchmarkExecute measures emulated instructions per second and the
// per-execution allocation of every workload on every architecture,
// through each entry.
func BenchmarkExecute(b *testing.B) {
	for _, e := range execEntries {
		for _, c := range execBenchCases() {
			for _, arch := range isa.All() {
				b.Run(e.name+"/"+c.name+"/"+arch.Name, func(b *testing.B) { benchExecute(b, c, arch, e.run) })
			}
		}
	}
}

// benchTarget compiles c for arch and returns its hot function with the
// environment it runs under.
func benchTarget(tb testing.TB, c execBenchCase, arch *isa.Arch) (*disasm.Disassembly, *disasm.Function, *minic.Env) {
	im, err := compiler.Compile(c.mod, arch, compiler.O2)
	if err != nil {
		tb.Fatal(err)
	}
	dis, err := disasm.Disassemble(im)
	if err != nil {
		tb.Fatal(err)
	}
	fn, _ := dis.Lookup("hot")
	return dis, fn, &minic.Env{Args: []int64{minic.DataBase, c.iters}, Data: make([]byte, 256)}
}

func benchExecute(b *testing.B, c execBenchCase, arch *isa.Arch, run func(*disasm.Disassembly, *disasm.Function, *minic.Env) error) {
	dis, fn, env := benchTarget(b, c, arch)
	res, err := Execute(dis, fn, env, 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	perIter := res.Trace.Instrs
	if err := run(dis, fn, env); err != nil { // warms the pooled machine for this entry
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(dis, fn, env); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perIter), "instrs/op")
	b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// maxBytesPerExec is each case's allocation per execution through Execute
// on a pooled machine: the Result, the trace with one count slice per
// function entered, and the data page the environment's buffer fills, all
// of which the Result takes. The machine, its page tables and its stack
// page are reused. No case may rise above it, and Profile may allocate
// nothing at all.
var maxBytesPerExec = map[string]int64{
	"short/xarm32": 4592, "short/xarm64": 4592, "short/x86": 4592, "short/amd64": 4592,
	"loop4096/xarm32": 4592, "loop4096/xarm64": 4592, "loop4096/x86": 4592, "loop4096/amd64": 4592,
	"calls/xarm32": 4912, "calls/xarm64": 4912, "calls/x86": 4848, "calls/amd64": 4912,
}

type emuBenchRow struct {
	Entry         string  `json:"entry"`
	Case          string  `json:"case"`
	Arch          string  `json:"arch"`
	InstrsPerOp   int64   `json:"instrs_per_op"`
	NsPerOp       float64 `json:"ns_per_op"`
	InstrsPerSec  float64 `json:"instrs_per_sec"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	MaxBytesPerOp int64   `json:"max_bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
}

type emuBenchArtifact struct {
	Benchmark string        `json:"benchmark"`
	Rows      []emuBenchRow `json:"rows"`
}

// TestWriteEmuBenchArtifact runs every BenchmarkExecute case and writes
// BENCH_emu.json to the path in PATCHECKO_BENCH_OUT. Skipped when the
// variable is unset, so `go test` stays fast; `make bench-emu` opts in. It
// fails if any case allocates more per execution than its maxBytesPerExec.
func TestWriteEmuBenchArtifact(t *testing.T) {
	out := os.Getenv("PATCHECKO_BENCH_OUT")
	if out == "" {
		t.Skip("PATCHECKO_BENCH_OUT not set")
	}
	art := emuBenchArtifact{Benchmark: "internal/emu Execute and Profile: one function invocation per op, compiled at O2"}
	for _, e := range execEntries {
		for _, c := range execBenchCases() {
			for _, arch := range isa.All() {
				r := testing.Benchmark(func(b *testing.B) { benchExecute(b, c, arch, e.run) })
				ceiling, ok := maxBytesPerExec[c.name+"/"+arch.Name]
				if !ok {
					t.Fatalf("no allocation ceiling for %s/%s", c.name, arch.Name)
				}
				if e.name == "profile" {
					ceiling = 0
				}
				row := emuBenchRow{
					Entry:         e.name,
					Case:          c.name,
					Arch:          arch.Name,
					InstrsPerOp:   int64(r.Extra["instrs/op"]),
					NsPerOp:       float64(r.T.Nanoseconds()) / float64(r.N),
					InstrsPerSec:  r.Extra["instrs/s"],
					BytesPerOp:    r.AllocedBytesPerOp(),
					MaxBytesPerOp: ceiling,
					AllocsPerOp:   r.AllocsPerOp(),
				}
				art.Rows = append(art.Rows, row)
				t.Logf("%s/%s/%s: %d instrs, %.0f ns/op, %.1f M instrs/s, %d B/op",
					row.Entry, row.Case, row.Arch, row.InstrsPerOp, row.NsPerOp, row.InstrsPerSec/1e6, row.BytesPerOp)
				if row.BytesPerOp > ceiling {
					t.Errorf("%s/%s/%s allocates %d B per execution, above its %d B ceiling",
						row.Entry, row.Case, row.Arch, row.BytesPerOp, ceiling)
				}
			}
		}
	}
	raw, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
