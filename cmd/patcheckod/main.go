// Command patcheckod is the resident scan service: a long-lived HTTP/JSON
// daemon over the patchecko engine with admission control, retry/backoff,
// per-job deadlines and a crash-safe job journal (see internal/server). Each
// job runs exactly the scan its submission asks for: the full pipeline, or
// the static stage alone when it sets static_only.
//
// Start it:
//
//	patcheckod -addr :8844 -model model.json -db corpus/vulndb.json \
//	    -journal /var/lib/patcheckod/journal.jsonl
//
// Submit work with patcheckoctl, or directly:
//
//	POST /scan                 {"device":...,"arch":...,"images":[...]}
//	GET  /jobs/{id}            job status
//	GET  /jobs/{id}/report     the Report (add ?normalize=1 for comparison form)
//	GET  /jobs/{id}/events     the job's trace events as JSONL
//	DELETE /jobs/{id}          cancel
//	GET  /healthz /readyz /metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/detector"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/vulndb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "patcheckod:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	fs := flag.NewFlagSet("patcheckod", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8844", "listen address")
		modelPath = fs.String("model", "model.json", "trained model")
		dbPath    = fs.String("db", "vulndb.json", "vulnerability database")

		queueDepth  = fs.Int("queue-depth", 64, "admission queue bound; submissions beyond it get a typed 429")
		workers     = fs.Int("workers", 2, "job worker pool size (<0 = admit-only: journal jobs, run nothing)")
		scanWorkers = fs.Int("scan-workers", runtime.NumCPU(), "engine parallelism within one job (results identical at any count)")

		retryBudget = fs.Int("retry-budget", 2, "re-attempts allowed per job for retryable scan errors")
		retryBase   = fs.Duration("retry-base", 100*time.Millisecond, "first retry backoff (doubles per attempt, ±50% jitter)")
		retryMax    = fs.Duration("retry-max", 5*time.Second, "retry backoff cap")

		deadline = fs.Duration("deadline", 0, "per-job wall-clock bound (0 = none); a job still running at it fails with \"deadline\"")

		journal = fs.String("journal", "", "crash-safe job journal path (empty = in memory only, no resume); either way the 64 most recently finished jobs stay queryable")

		storeDir = fs.String("store", "", "persistent score-store directory shared by all jobs")
		storeMax = fs.Int64("store-max", 0, "score-store on-disk byte budget (0 = default 64MiB)")
	)
	of := obs.AddFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if *storeMax < 0 {
		return fmt.Errorf("-store-max must be >= 0 bytes (0 = default), got %d", *storeMax)
	}

	rawModel, err := os.ReadFile(*modelPath)
	if err != nil {
		return err
	}
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

	cfg := server.Config{
		Model:       model,
		DB:          db,
		QueueDepth:  *queueDepth,
		Workers:     *workers,
		ScanWorkers: *scanWorkers,
		RetryBudget: *retryBudget,
		RetryBase:   *retryBase,
		RetryMax:    *retryMax,
		JobDeadline: *deadline,
		JournalPath: *journal,
	}
	if *storeDir != "" {
		store, serr := cas.Open(*storeDir, obs.ModelHash(rawModel), *storeMax)
		if serr != nil {
			return serr
		}
		cfg.Store = store
	}
	// The service-level sink feeds /metrics; -metrics/-trace additionally
	// write its artifacts at shutdown — on EVERY exit path, signals included.
	cfg.Obs = of.Collector()
	defer func() {
		if werr := of.Write(obs.RunInfo{
			Tool:      "patcheckod",
			Workers:   *scanWorkers,
			ModelHash: obs.ModelHash(rawModel),
		}); werr != nil && err == nil {
			err = werr
		}
	}()

	svc, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("patcheckod: listening on %s (queue %d, workers %d, scan-workers %d, journal %q)\n",
		*addr, *queueDepth, *workers, *scanWorkers, *journal)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("patcheckod: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if herr := httpSrv.Shutdown(shutdownCtx); herr != nil && !errors.Is(herr, context.DeadlineExceeded) {
		return herr
	}
	// svc.Close (deferred) cancels running jobs without journaling them
	// terminal, so a journaled deployment resumes them on the next start.
	return nil
}
