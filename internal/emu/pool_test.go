package emu

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binimg"
	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// TestProfileAllocFree pins the point of the machine pool: once its
// machine is warm, a Profile execution of the short and calls benchmark
// cases allocates nothing on any architecture.
func TestProfileAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, c := range execBenchCases() {
		if c.name != "short" && c.name != "calls" {
			continue
		}
		for _, arch := range isa.All() {
			dis, fn, env := benchTarget(t, c, arch)
			run := func() {
				if _, err := Profile(nil, dis, fn, env, 1<<22, nil); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if n := testing.AllocsPerRun(100, run); n != 0 {
				t.Errorf("%s/%s: %v allocations per warm Profile, want 0", c.name, arch.Name, n)
			}
		}
	}
}

// throwawayModule calls through a few frames and reads rodata, so that an
// execution of outer leaves references to its image in the frames, the
// trace, the links and the rodata a machine holds.
var throwawayModule = &minic.Module{Name: "libthrowaway", Funcs: []*minic.Func{
	minic.NewFunc("outer", []string{"p"},
		minic.Ret(minic.Add(minic.Call("strlen", minic.S("a string literal long enough to be its own allocation")),
			minic.Call("inner", minic.V("p"), minic.I(3))))),
	minic.NewFunc("inner", []string{"p", "d"},
		minic.When(minic.Gt(minic.V("d"), minic.I(0)),
			minic.Ret(minic.Add(minic.I(1), minic.Call("inner", minic.V("p"), minic.Sub(minic.V("d"), minic.I(1)))))),
		minic.Ret(minic.Ld(minic.V("p"), minic.I(0)))),
}}

// TestPoolPinsNoImage runs a function of a throwaway disassembly through
// both pooled entries, drops the disassembly, and requires its image and
// rodata to be collected while every pooled machine is held.
func TestPoolPinsNoImage(t *testing.T) {
	var freed atomic.Int32
	func() {
		im, err := compiler.Compile(throwawayModule, isa.AMD64, compiler.O0)
		if err != nil {
			t.Fatal(err)
		}
		im.Rodata = append([]byte(nil), im.Rodata...) // its own allocation, for its finalizer
		runtime.SetFinalizer(im, func(*binimg.Image) { freed.Add(1) })
		runtime.SetFinalizer(&im.Rodata[0], func(*byte) { freed.Add(1) })
		dis, err := disasm.Disassemble(im)
		if err != nil {
			t.Fatal(err)
		}
		fn, _ := dis.Lookup("outer")
		env := &minic.Env{Args: []int64{minic.DataBase}, Data: []byte{5}}
		if _, err := ExecuteObserved(nil, dis, fn, env, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := Profile(nil, dis, fn, env, 0, nil); err != nil {
			t.Fatal(err)
		}
	}()
	// Hold every pooled machine: the pool frees what it holds after two
	// collections, which would hide a machine that pins the image.
	held := make([]*Machine, 64)
	for i := range held {
		held[i] = machines.Get().(*Machine)
	}
	defer func() {
		for _, m := range held {
			machines.Put(m)
		}
	}()
	for i := 0; i < 20 && freed.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let the finalizers run
	}
	if n := freed.Load(); n < 2 {
		t.Fatalf("%d of the image and its rodata collected, want both: a pooled machine pins the image", n)
	}
	runtime.KeepAlive(held)
}

// TestReleaseBoundsPages pins what a released machine keeps of an
// execution that wrote 16 pages in each writable region: empty page tables
// and at most maxSparePages spare pages.
func TestReleaseBoundsPages(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("scribble", []string{"p", "s", "n"},
			minic.Set("h", minic.Call("malloc", minic.I(64*1024))),
			minic.Set("i", minic.I(0)),
			minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
				minic.St(minic.V("h"), minic.Mul(minic.V("i"), minic.I(4096)), minic.I(1)),
				minic.St(minic.V("s"), minic.Mul(minic.V("i"), minic.I(4096)), minic.I(2)),
				minic.St(minic.V("p"), minic.Mul(minic.V("i"), minic.I(4096)), minic.I(3)),
				minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
			minic.Ret(minic.V("h"))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O0)
	fn, _ := dis.Lookup("scribble")
	m := new(Machine)
	env := &minic.Env{Args: []int64{minic.DataBase, StackTop - 16*4096, 16}, Data: []byte{9}}
	if _, err := m.exec(nil, dis, fn, env, 0); err != nil {
		t.Fatal(err)
	}
	m.release()
	for _, table := range [][]*page{m.mem.data[:], m.mem.heap[:], m.mem.stack[:]} {
		for i, p := range table {
			if p != nil {
				t.Fatalf("released machine still maps page %d of a region", i)
			}
		}
	}
	if len(m.mem.used) != 0 || len(m.mem.spare) != maxSparePages {
		t.Errorf("released machine lists %d used slots and keeps %d spare pages, want 0 and %d",
			len(m.mem.used), len(m.mem.spare), maxSparePages)
	}
}
