// Command patchecko is the scanner CLI: it trains the similarity model and
// scans firmware library images against the CVE database.
//
// Train a model (writes model.json):
//
//	patchecko train -scale small -seed 1 -out model.json
//
// Scan an image for every CVE in the database:
//
//	patchecko scan -model model.json -db corpus/vulndb.json \
//	    -image corpus/thingos-1.0/libstagefright.img
//
// Scan for a single CVE:
//
//	patchecko scan -model model.json -db corpus/vulndb.json \
//	    -image corpus/thingos-1.0/libstagefright.img -cve CVE-2018-9412
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/compiler"
	"repro/internal/corpus"
	"repro/internal/detector"
	"repro/internal/diffengine"
	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/vulndb"
	"repro/patchecko"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = runTrain(os.Args[2:])
	case "scan":
		err = runScan(os.Args[2:])
	case "disasm":
		err = runDisasm(os.Args[2:])
	case "compile":
		err = runCompile(os.Args[2:])
	case "run":
		err = runRun(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "patchecko:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  patchecko train  -scale <tiny|small|medium|large> -seed N -out model.json
  patchecko scan   -model model.json -db vulndb.json -image lib.img [-cve CVE-...] [-workers N]
                   [-prefilter=false] [-store DIR [-store-max BYTES]]
  (train and scan also take -cpuprofile file / -memprofile file for go tool pprof;
   scan also takes -metrics manifest.json / -trace events.jsonl for run observability;
   -store keeps static scores on disk keyed by function content address, so
   rescanning a firmware update only re-scores functions that changed;
   the component-identification prefilter skips CVEs whose signature rules the
   image out — every skip is printed, true hosts are never skipped (recall 1.0
   pinned by test), and -prefilter=false scans every CVE)
  patchecko disasm -image lib.img [-func name|-addr 0x...]
  patchecko compile -src file.mc [-arch amd64 -level O2 -out lib.img -strip]
  patchecko run -src file.mc -func f [-args 4096,8 -data "bytes"]
  patchecko diff -a lib1.img -b lib2.img -afunc f [-bfunc g]`)
}

func runTrain(args []string) (err error) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	var (
		scaleName = fs.String("scale", "small", "corpus scale")
		seed      = fs.Int64("seed", 1, "seed")
		out       = fs.String("out", "model.json", "output model path")
	)
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()
	scale, err := corpus.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	fmt.Printf("building training corpus (%s scale)...\n", scale.Name)
	groups, err := corpus.TrainingGroups(scale, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %d functions, %d feature vectors\n", len(groups), groups.NumVectors())
	cfg := detector.DefaultTrainConfig()
	cfg.Seed = *seed
	cfg.Epochs = scale.Epochs
	cfg.MaxPosPerFunc = scale.MaxPosPerFunc
	cfg.Verbose = func(s string) { fmt.Println("  " + s) }
	model, _, ds, err := detector.Train(groups, cfg)
	if err != nil {
		return err
	}
	acc, loss, auc := model.TestMetrics(ds.Test)
	fmt.Printf("held-out test: accuracy %.4f loss %.4f AUC %.4f\n", acc, loss, auc)
	raw, err := model.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(raw))
	return nil
}

func runDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	var (
		imagePath = fs.String("image", "", "library image")
		funcName  = fs.String("func", "", "dump a single function by symbol name")
		addr      = fs.Uint64("addr", 0, "dump the function at this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *imagePath == "" {
		return fmt.Errorf("-image is required")
	}
	raw, err := os.ReadFile(*imagePath)
	if err != nil {
		return err
	}
	im, err := binimg.Decode(raw)
	if err != nil {
		return err
	}
	dis, err := disasm.Disassemble(im)
	if err != nil {
		return err
	}
	fmt.Printf("%s  arch=%s level=%s stripped=%v  %d functions\n\n",
		im.LibName, im.Arch, im.OptLevel, im.Stripped, len(dis.Funcs))
	switch {
	case *funcName != "":
		fn, ok := dis.Lookup(*funcName)
		if !ok {
			return fmt.Errorf("no function %q (stripped image?)", *funcName)
		}
		dis.Dump(os.Stdout, fn)
	case *addr != 0:
		fn, ok := dis.FuncAt(*addr)
		if !ok {
			return fmt.Errorf("no function at %#x", *addr)
		}
		dis.Dump(os.Stdout, fn)
	default:
		dis.DumpAll(os.Stdout)
	}
	return nil
}

func runScan(args []string) (err error) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "model.json", "trained model")
		dbPath    = fs.String("db", "vulndb.json", "vulnerability database")
		imagePath = fs.String("image", "", "library image to scan")
		cveID     = fs.String("cve", "", "scan a single CVE (default: all)")
		workers   = fs.Int("workers", runtime.NumCPU(), "scan worker pool size (results are identical at any count)")
		storeDir  = fs.String("store", "", "persistent score-store directory for incremental delta scans")
		storeMax  = fs.Int64("store-max", 0, "score-store on-disk byte budget (0 = default 64MiB)")
		prefilter = fs.Bool("prefilter", true, "skip CVEs whose component-identification signature rules the image out (each skip is printed; ground-truth recall is pinned at 1.0 by test; -prefilter=false scans every CVE)")
	)
	prof := profiling.AddFlags(fs)
	of := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *imagePath == "" {
		return fmt.Errorf("-image is required")
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *storeMax < 0 {
		return fmt.Errorf("-store-max must be >= 0 bytes (0 = default), got %d", *storeMax)
	}
	// Flush the observability sinks on EVERY exit path — error returns and
	// signal exits included. A partially-completed scan's counters and trace
	// are exactly what a post-mortem needs; losing them to an early return
	// defeats the point of collecting them.
	var modelHash string
	defer func() {
		if werr := of.Write(obs.RunInfo{
			Tool:      "patchecko scan",
			Workers:   *workers,
			ModelHash: modelHash,
		}); werr != nil && err == nil {
			err = werr
		}
	}()
	rawModel, err := os.ReadFile(*modelPath)
	if err != nil {
		return err
	}
	modelHash = obs.ModelHash(rawModel)
	model, err := detector.Unmarshal(rawModel)
	if err != nil {
		return err
	}
	rawDB, err := os.ReadFile(*dbPath)
	if err != nil {
		return err
	}
	db, err := vulndb.Load(rawDB)
	if err != nil {
		return err
	}
	rawImg, err := os.ReadFile(*imagePath)
	if err != nil {
		return err
	}
	im, err := binimg.Decode(rawImg)
	if err != nil {
		return err
	}

	an := patchecko.NewAnalyzer(model, db)
	an.Workers = *workers
	an.Obs = of.Collector()
	an.Prefilter = *prefilter
	if *storeDir != "" {
		// The store is versioned by the model content hash: entries written
		// by any other model answer as invalidated, never as hits.
		store, err := cas.Open(*storeDir, modelHash, *storeMax)
		if err != nil {
			return err
		}
		an.Store = store
	}
	prepWatch := obs.StartStopwatch()
	prepared, err := patchecko.Prepare(im)
	if err != nil {
		return err
	}
	an.Obs.AddStage(obs.StagePrepare, prepWatch.Elapsed())
	an.Obs.Add(obs.CtrImagesPrepared, 1)
	an.Obs.Add(obs.CtrFuncsDisassembled, int64(prepared.NumFuncs()))
	an.Obs.Emit(obs.Event{Kind: obs.EvImagePrepared, Library: im.LibName, Funcs: prepared.NumFuncs()})
	fmt.Printf("%s (%s, %s): %d functions recovered\n",
		im.LibName, im.Arch, im.OptLevel, prepared.NumFuncs())

	ids := db.IDs()
	if *cveID != "" {
		ids = []string{*cveID}
	}
	// Scan failures are isolated per CVE, mirroring the firmware engine: a
	// broken reference must not cost the scans of the remaining CVEs. Any
	// failure still exits non-zero after the loop. SIGINT/SIGTERM cancel the
	// context so an interrupted run still reaches the deferred sink flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	failed := 0
	pruned := 0
	for i, id := range ids {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted after %d of %d CVE scans", i, len(ids))
		}
		// Single-image mode has no grid to fold and no rescue pass, so
		// pruning changes the printed answer: a pruned CVE is skipped even
		// where the full scan would print a lookalike match. The prefilter
		// never prunes a CVE's host image, so such a match is never the
		// CVE's own function. -cve bypasses the skip — an explicit request
		// is always scanned. A pruned CVE is one pruned cell: one image,
		// one query mode.
		if an.Prefilter && *cveID == "" && !an.PrefilterKeep(prepared, id) {
			pruned++
			an.Obs.Add(obs.CtrCellsPruned, 1)
			fmt.Printf("%-16s pruned (component prefilter: image lacks the CVE's component fingerprint)\n", id)
			continue
		}
		scan, err := an.ScanImage(ctx, prepared, id, patchecko.QueryVulnerable)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted: %w", err)
			}
			failed++
			fmt.Fprintf(os.Stderr, "patchecko: %-16s scan failed: %v\n", id, err)
			continue
		}
		an.EmitScanEvents(scan)
		if !scan.Matched {
			fmt.Printf("%-16s no match (candidates %d, survived validation %d)\n",
				id, scan.NumCandidates, scan.NumExecuted)
			continue
		}
		status := "VULNERABLE"
		if scan.Verdict.Patched {
			status = "patched"
		}
		fmt.Printf("%-16s match at %#x (sim %.3f, %d candidates -> %d executed) verdict: %s (confidence %.2f)\n",
			id, scan.Match.Addr, scan.Match.Sim, scan.NumCandidates, scan.NumExecuted,
			status, scan.Verdict.Confidence)
	}
	if pruned > 0 {
		fmt.Printf("prefilter: pruned %d of %d CVEs (rerun with -prefilter=false to scan the full set)\n",
			pruned, len(ids))
	}
	dc := an.DedupCounts()
	fmt.Printf("dedup: %d unique of %d functions; scored %d pairs, reused %d, from store %d\n",
		prepared.NumUnique(), prepared.NumFuncs(), dc.PairsScored, dc.PairsDeduped, dc.PairsFromStore)
	if an.Store != nil {
		fmt.Printf("store: %d hits, %d misses, %d invalidated (%d bytes in %s)\n",
			dc.StoreHits, dc.StoreMisses, dc.StoreInvalidated, an.Store.Size(), an.Store.Dir())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d CVE scans failed", failed, len(ids))
	}
	return nil
}

func runCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	var (
		srcPath   = fs.String("src", "", "minic source file")
		name      = fs.String("name", "", "library name (default: source file base name)")
		archName  = fs.String("arch", "amd64", "target architecture: xarm32|xarm64|x86|amd64")
		levelName = fs.String("level", "O2", "optimization level: O0|O1|O2|O3|Oz|Ofast")
		out       = fs.String("out", "", "output image path (default: <name>.img)")
		strip     = fs.Bool("strip", false, "strip the symbol table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *srcPath == "" {
		return fmt.Errorf("-src is required")
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		return err
	}
	libName := *name
	if libName == "" {
		libName = strings.TrimSuffix(filepath.Base(*srcPath), filepath.Ext(*srcPath))
	}
	mod, err := minic.Parse(libName, string(src))
	if err != nil {
		return err
	}
	arch, err := isa.ByName(*archName)
	if err != nil {
		return err
	}
	im, err := compiler.Compile(mod, arch, compiler.Level(*levelName))
	if err != nil {
		return err
	}
	if *strip {
		im = im.Strip()
	}
	outPath := *out
	if outPath == "" {
		outPath = libName + ".img"
	}
	enc := binimg.Encode(im)
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("compiled %d functions (%s, %s) -> %s (%d bytes%s)\n",
		len(mod.Funcs), arch.Name, *levelName, outPath, len(enc),
		map[bool]string{true: ", stripped"}[*strip])
	return nil
}

func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		srcPath   = fs.String("src", "", "minic source file")
		funcName  = fs.String("func", "", "function to execute")
		archName  = fs.String("arch", "amd64", "target architecture")
		levelName = fs.String("level", "O2", "optimization level")
		argList   = fs.String("args", "", "comma-separated integer arguments (arg0 defaults to the data-buffer address)")
		dataStr   = fs.String("data", "", "initial data-buffer contents (string)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *srcPath == "" || *funcName == "" {
		return fmt.Errorf("-src and -func are required")
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		return err
	}
	mod, err := minic.Parse("main", string(src))
	if err != nil {
		return err
	}
	arch, err := isa.ByName(*archName)
	if err != nil {
		return err
	}
	im, err := compiler.Compile(mod, arch, compiler.Level(*levelName))
	if err != nil {
		return err
	}
	dis, err := disasm.Disassemble(im)
	if err != nil {
		return err
	}
	env := &minic.Env{Args: []int64{minic.DataBase}, Data: []byte(*dataStr)}
	if *argList != "" {
		env.Args = nil
		for _, tok := range strings.Split(*argList, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 64)
			if err != nil {
				return fmt.Errorf("bad argument %q: %w", tok, err)
			}
			env.Args = append(env.Args, v)
		}
	}
	res, err := emu.ExecuteByName(dis, *funcName, env, 0)
	if err != nil {
		return fmt.Errorf("execution failed: %w", err)
	}
	fmt.Printf("%s(%v) = %d\n", *funcName, env.Args, res.Ret)
	v := res.Trace.Vector()
	fmt.Printf("trace: %d instructions (%d unique), %d arith, %d branch, %d load, %d store, %d lib calls, %d syscalls\n",
		int64(v[5]), int64(v[6]), int64(v[8]), int64(v[9]), int64(v[10]), int64(v[11]), int64(v[19]), int64(v[20]))
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var (
		aPath = fs.String("a", "", "first library image")
		bPath = fs.String("b", "", "second library image")
		aFunc = fs.String("afunc", "", "function in the first image")
		bFunc = fs.String("bfunc", "", "function in the second image (default: same as -afunc)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *aPath == "" || *bPath == "" || *aFunc == "" {
		return fmt.Errorf("-a, -b and -afunc are required")
	}
	if *bFunc == "" {
		*bFunc = *aFunc
	}
	load := func(path, fn string) (*disasm.Disassembly, *disasm.Function, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		im, err := binimg.Decode(raw)
		if err != nil {
			return nil, nil, err
		}
		dis, err := disasm.Disassemble(im)
		if err != nil {
			return nil, nil, err
		}
		f, ok := dis.Lookup(fn)
		if !ok {
			return nil, nil, fmt.Errorf("%s: no function %q (stripped image?)", path, fn)
		}
		return dis, f, nil
	}
	adis, af, err := load(*aPath, *aFunc)
	if err != nil {
		return err
	}
	bdis, bf, err := load(*bPath, *bFunc)
	if err != nil {
		return err
	}
	asig, bsig := diffengine.SigOf(af), diffengine.SigOf(bf)
	fmt.Printf("%-24s %12s %12s\n", "", *aFunc+"@a", *bFunc+"@b")
	fmt.Printf("%-24s %12d %12d\n", "instructions", len(af.Instrs), len(bf.Instrs))
	fmt.Printf("%-24s %12d %12d\n", "basic blocks", asig.NumBlocks, bsig.NumBlocks)
	fmt.Printf("%-24s %12d %12d\n", "cfg edges", asig.NumEdges, bsig.NumEdges)
	fmt.Printf("%-24s %12d %12d\n", "call sites", asig.NumCalls, bsig.NumCalls)
	fmt.Printf("%-24s %12d %12d\n", "frame bytes", asig.LocalSize, bsig.LocalSize)
	importNames := func(idxs []int) string {
		var names []string
		for _, i := range idxs {
			if bi, ok := minic.BuiltinByIndex(i); ok {
				names = append(names, bi.Name)
			}
		}
		return strings.Join(names, ",")
	}
	fmt.Printf("%-24s %12s %12s\n", "imports", importNames(asig.Imports), importNames(bsig.Imports))
	fmt.Printf("\nsignature distance: %.2f  (0 = structurally identical)\n",
		diffengine.Distance(asig, bsig))
	fmt.Printf("bindiff block-match score: %.3f  (1 = perfect match)\n", baseline.BinDiff(af, bf))
	_ = adis
	_ = bdis
	return nil
}
