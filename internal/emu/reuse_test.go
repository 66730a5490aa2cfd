package emu_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/minic"
)

// execCase is one execution of the machine-reuse tests.
type execCase struct {
	name  string
	ctx   context.Context
	dis   *disasm.Disassembly
	fn    *disasm.Function
	env   *minic.Env
	limit int64
}

func (c execCase) runOn(m *emu.Machine) emu.Outcome {
	return emu.RunOn(c.ctx, m, c.dis, c.fn, c.env, c.limit)
}

// dirtyModule holds the executions that leave a machine as dirty as one
// can: heap pages, builtin state and data pages past the input buffer
// (heap); deep frames and stack pages below the top one (deep); a step
// limit hit mid-loop with live flags and hot counts (spin, also run under a
// cancelled context); a call-depth TrapStack (overflow); and an execution
// failed by an armed faultinject.ExecTrap before its first instruction
// (armed).
var dirtyModule = &minic.Module{Name: "libdirty", Funcs: []*minic.Func{
	minic.NewFunc("heap", []string{"p", "n"},
		minic.Set("h", minic.Call("malloc", minic.I(3*4096))),
		minic.Set("i", minic.I(0)),
		minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
			minic.St(minic.V("h"), minic.Mul(minic.V("i"), minic.I(499)), minic.V("i")),
			minic.St(minic.V("p"), minic.Mul(minic.V("i"), minic.I(61)), minic.Add(minic.V("i"), minic.I(1))),
			minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
		minic.Ret(minic.Add(minic.V("h"), minic.Add(minic.Call("read_time"), minic.Call("sys_rand", minic.V("n")))))),
	minic.NewFunc("deep", []string{"p", "d"},
		minic.When(minic.Gt(minic.V("d"), minic.I(0)),
			minic.St(minic.V("p"), minic.Mul(minic.V("d"), minic.I(997)), minic.V("d")),
			minic.Ret(minic.Add(minic.I(1), minic.Call("deep", minic.V("p"), minic.Sub(minic.V("d"), minic.I(1)))))),
		minic.Ret(minic.I(0))),
	minic.NewFunc("spin", []string{"n"},
		minic.Set("s", minic.I(0)),
		minic.Set("i", minic.I(0)),
		minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
			minic.Set("s", minic.Xor(minic.V("s"), minic.Mul(minic.V("i"), minic.I(7)))),
			minic.When(minic.Gt(minic.V("s"), minic.I(100)), minic.Set("s", minic.Sub(minic.V("s"), minic.I(3)))),
			minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
		minic.Ret(minic.V("s"))),
	minic.NewFunc("overflow", []string{"a"},
		minic.Ret(minic.Call("overflow", minic.Add(minic.V("a"), minic.I(1))))),
	minic.NewFunc("armed", []string{"p"},
		minic.St(minic.V("p"), minic.I(0), minic.I(1)),
		minic.Ret(minic.I(1))),
	minic.NewFunc("heapnext", nil,
		minic.Ret(minic.Add(minic.Call("malloc", minic.I(8)), minic.Call("read_time")))),
	minic.NewFunc("sumw", []string{"p", "n"},
		minic.Set("s", minic.I(0)),
		minic.Set("i", minic.I(0)),
		minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
			minic.Set("s", minic.Xor(minic.Mul(minic.V("s"), minic.I(31)), minic.LdW(minic.V("p"), minic.V("i")))),
			minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
		minic.Ret(minic.V("s"))),
}}

// dirtyCases returns dirtyModule's executions on every architecture, and
// the probes that read what a reused machine would leak into the next
// execution: the compare flags (emu.FlagProbe), the builtin state
// (heapnext), and the top stack page, the data region and the first 64 KiB
// of the heap (sumw). It arms the ExecTrap fault of every armed execution
// until the test ends.
func dirtyCases(t *testing.T) (dirty, probes []execCase) {
	t.Helper()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	injected := errors.New("injected execution fault")
	for _, arch := range isa.All() {
		dis := disassemble(t, dirtyModule, arch, compiler.O0)
		fn := func(name string) *disasm.Function {
			f, ok := dis.Lookup(name)
			if !ok {
				t.Fatalf("%s missing on %s", name, arch.Name)
			}
			return f
		}
		t.Cleanup(faultinject.Arm(faultinject.ExecTrap, dis.Image.LibName+":armed", injected))
		at := func(addr int64) *minic.Env { return &minic.Env{Args: []int64{addr, 1000}, Data: []byte{1, 2, 3}} }
		dirty = append(dirty,
			execCase{"heap/" + arch.Name, nil, dis, fn("heap"), at(minic.DataBase), 0},
			execCase{"deep/" + arch.Name, nil, dis, fn("deep"), &minic.Env{Args: []int64{emu.StackTop - 16*4096, 40}}, 0},
			execCase{"spin/" + arch.Name, nil, dis, fn("spin"), &minic.Env{Args: []int64{1 << 40}}, 3001},
			execCase{"overflow/" + arch.Name, nil, dis, fn("overflow"), &minic.Env{}, 0},
			execCase{"cancelled/" + arch.Name, cancelled, dis, fn("spin"), &minic.Env{Args: []int64{1 << 40}}, 0},
			execCase{"armed/" + arch.Name, nil, dis, fn("armed"), at(minic.DataBase + 5*4096), 0},
		)
		sumw := func(name string, addr, words int64) execCase {
			return execCase{name + "/" + arch.Name, nil, dis, fn("sumw"), &minic.Env{Args: []int64{addr, words}}, 0}
		}
		probes = append(probes,
			execCase{"heapnext/" + arch.Name, nil, dis, fn("heapnext"), &minic.Env{}, 0},
			sumw("stackprobe", emu.StackTop-4096, 500), // below sumw's own frame
			sumw("dataprobe", minic.DataBase, minic.DataSize/8),
			sumw("heapprobe", minic.HeapBase, minic.DataSize/8))
	}
	dis, fn := emu.FlagProbe()
	probes = append(probes, execCase{"flags", nil, dis, fn, &minic.Env{}, 0})
	return dirty, probes
}

// reuseSequence orders every execution of the corpus digest after a dirty
// one, cycling through dirtyCases, and follows every dirty execution with
// every probe.
func reuseSequence(t *testing.T) []execCase {
	t.Helper()
	dirty, probes := dirtyCases(t)
	var seq []execCase
	for _, d := range dirty {
		for _, p := range probes {
			seq = append(seq, d, p)
		}
	}
	i := 0
	for _, c := range loadCorpus(t) {
		for _, arch := range isa.All() {
			for _, lvl := range compiler.Levels() {
				dis := disassemble(t, c.mod, arch, lvl)
				fn, ok := dis.Lookup(c.fname)
				if !ok {
					t.Fatalf("%s: %s missing on %s/%s", c.name, c.fname, arch.Name, lvl)
				}
				for ei, env := range c.envs {
					name := fmt.Sprintf("%s/%s/%s/env%d", c.name, arch.Name, lvl, ei)
					seq = append(seq, dirty[i%len(dirty)], execCase{name, nil, dis, fn, env, corpusStepLimit})
					i++
				}
			}
		}
	}
	return seq
}

// sameOutcome reports how got differs from want, or "" when it does not.
func sameOutcome(got, want emu.Outcome) string {
	gt, _ := minic.IsTrap(got.Err)
	wt, _ := minic.IsTrap(want.Err)
	switch {
	case fmt.Sprint(got.Err) != fmt.Sprint(want.Err):
		return fmt.Sprintf("err %v, want %v", got.Err, want.Err)
	case (gt == nil) != (wt == nil) || gt != nil && (gt.Kind != wt.Kind || gt.Addr != wt.Addr):
		return fmt.Sprintf("trap %v, want %v", gt, wt)
	case got.Ret != want.Ret:
		return fmt.Sprintf("ret %d, want %d", got.Ret, want.Ret)
	case got.Vec != want.Vec:
		return fmt.Sprintf("vector %v, want %v", got.Vec, want.Vec)
	case string(got.Mem) != string(want.Mem):
		return "final data region differs"
	}
	return ""
}

// TestMachineReuseMatchesFresh runs every execution of the corpus digest,
// each right after a dirty one, on one machine reused throughout, and
// requires each to match the same execution on a never-pooled
// new(emu.Machine): return value, trap kind and address, feature vector
// and final data region.
func TestMachineReuseMatchesFresh(t *testing.T) {
	reused := new(emu.Machine)
	for _, c := range reuseSequence(t) {
		want := c.runOn(new(emu.Machine))
		if diff := sameOutcome(c.runOn(reused), want); diff != "" {
			t.Fatalf("%s on a reused machine: %s", c.name, diff)
		}
	}
}

// TestPooledExecutionsConcurrent runs the same sequence through the pooled
// entries, emu.Profile and emu.ExecuteObserved, on 8 goroutines at once,
// and requires every outcome to match a never-pooled machine's. Each
// goroutine runs whole (dirty, next) pairs, through the two entries in
// turn. Under the race detector it checks that pooled machines are never
// shared.
func TestPooledExecutionsConcurrent(t *testing.T) {
	seq := reuseSequence(t)
	want := make([]emu.Outcome, len(seq))
	for i, c := range seq {
		want[i] = c.runOn(new(emu.Machine))
	}
	const workers = 8
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; 2*k < len(seq); k += workers {
				for _, i := range []int{2 * k, 2*k + 1} {
					c := seq[i]
					var got emu.Outcome
					if (k/workers)%2 == 0 {
						got.Vec, got.Err = emu.Profile(c.ctx, c.dis, c.fn, c.env, c.limit, nil)
						got.Ret, got.Mem = want[i].Ret, want[i].Mem // Profile returns neither
					} else {
						res, err := emu.ExecuteObserved(c.ctx, c.dis, c.fn, c.env, c.limit, nil)
						got = emu.Outcome{Ret: res.Ret, Err: err, Vec: res.Trace.Vector(), Mem: res.Mem()}
					}
					if diff := sameOutcome(got, want[i]); diff != "" {
						errs[w] = fmt.Sprintf("%s on a pooled machine: %s", c.name, diff)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}
