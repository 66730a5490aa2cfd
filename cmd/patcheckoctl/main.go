// Command patcheckoctl is the scripted client for the patcheckod scan
// service: it submits a firmware image directory as one scan job, waits for
// the result, and writes the served Report bytes verbatim — which the CI
// smoke test compares against the committed golden report.
//
//	patcheckoctl submit -addr http://localhost:8844 \
//	    -dir corpus/thingos-1.0 -device thingos-1.0 -arch xarm32 \
//	    -normalize -out report.json
//	patcheckoctl health  -addr http://localhost:8844
//	patcheckoctl metrics -addr http://localhost:8844
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "submit":
		err = runSubmit(os.Args[2:])
	case "health":
		err = runGet(os.Args[2:], "/healthz")
	case "metrics":
		err = runGet(os.Args[2:], "/metrics")
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "patcheckoctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  patcheckoctl submit  -addr URL -dir DIR -device NAME -arch ARCH
                       [-manifest FILE] [-tenant T] [-deadline-ms N]
                       [-static-only] [-no-wait] [-normalize] [-out FILE]
  patcheckoctl health  -addr URL
  patcheckoctl metrics -addr URL

submit reads DIR's library images in the order of its images.txt manifest
(falling back to sorted filenames) — the order matters: the engine
tie-breaks on it, so byte-identical reports need the corpusgen order.`)
}

// submission mirrors server.Submission's wire form.
type submission struct {
	Tenant     string   `json:"tenant,omitempty"`
	Device     string   `json:"device"`
	Arch       string   `json:"arch"`
	Images     [][]byte `json:"images"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
	StaticOnly bool     `json:"static_only,omitempty"`
}

// imageOrder returns DIR's .img files in submission order: the images.txt
// manifest when present (corpusgen writes it in the engine's canonical
// order), sorted filenames otherwise.
func imageOrder(dir, manifest string) ([]string, error) {
	if manifest == "" {
		manifest = filepath.Join(dir, "images.txt")
	}
	if f, err := os.Open(manifest); err == nil {
		defer f.Close()
		var names []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" && !strings.HasPrefix(line, "#") {
				names = append(names, line)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", manifest, err)
		}
		return names, nil
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() && filepath.Ext(de.Name()) == ".img" {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "http://localhost:8844", "patcheckod base URL")
		dir        = fs.String("dir", "", "firmware image directory")
		manifest   = fs.String("manifest", "", "image-order manifest (default DIR/images.txt)")
		device     = fs.String("device", "", "device name recorded on the report")
		arch       = fs.String("arch", "", "device architecture")
		tenant     = fs.String("tenant", "", "tenant label recorded on the job status and its events")
		deadlineMS = fs.Int64("deadline-ms", 0, "per-job deadline in ms (0 = server default)")
		staticOnly = fs.Bool("static-only", false, "request the degraded static-only pipeline")
		noWait     = fs.Bool("no-wait", false, "print the job id and exit without waiting")
		normalize  = fs.Bool("normalize", false, "fetch the report in normalized comparison form")
		out        = fs.String("out", "", "write the report to this file (default stdout)")
		timeout    = fs.Duration("timeout", 5*time.Minute, "overall wait timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *arch == "" {
		return fmt.Errorf("-dir and -arch are required")
	}

	names, err := imageOrder(*dir, *manifest)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("%s: no images", *dir)
	}
	sub := submission{
		Tenant: *tenant, Device: *device, Arch: *arch,
		DeadlineMS: *deadlineMS, StaticOnly: *staticOnly,
	}
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(*dir, name))
		if err != nil {
			return err
		}
		sub.Images = append(sub.Images, raw)
	}

	body, err := json.Marshal(sub)
	if err != nil {
		return err
	}
	resp, err := http.Post(*addr+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	ack, err := readAll(resp)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var acked struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(ack, &acked); err != nil || acked.Job == "" {
		return fmt.Errorf("submit: malformed ack: %s", ack)
	}
	fmt.Fprintf(os.Stderr, "patcheckoctl: job %s accepted\n", acked.Job)
	if *noWait {
		fmt.Println(acked.Job)
		return nil
	}

	state, err := waitTerminal(*addr, acked.Job, *timeout)
	if err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("job %s terminated %s", acked.Job, state)
	}

	reportURL := *addr + "/jobs/" + acked.Job + "/report"
	if *normalize {
		reportURL += "?normalize=1"
	}
	resp, err = http.Get(reportURL)
	if err != nil {
		return err
	}
	report, err := readAll(resp)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if *out != "" {
		return os.WriteFile(*out, report, 0o644)
	}
	_, err = os.Stdout.Write(report)
	return err
}

// waitTerminal polls the job until it leaves queued/running.
func waitTerminal(addr, id string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(addr + "/jobs/" + id)
		if err != nil {
			return "", err
		}
		raw, err := readAll(resp)
		if err != nil {
			return "", fmt.Errorf("status: %w", err)
		}
		var st struct {
			State string `json:"state"`
			Error *struct {
				Kind string `json:"kind"`
				Msg  string `json:"msg"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return "", fmt.Errorf("status: malformed: %s", raw)
		}
		switch st.State {
		case "queued", "running":
		default:
			if st.Error != nil {
				fmt.Fprintf(os.Stderr, "patcheckoctl: job %s: %s: %s\n", id, st.Error.Kind, st.Error.Msg)
			}
			return st.State, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("timed out waiting for job %s (last state %s)", id, st.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func runGet(args []string, path string) error {
	fs := flag.NewFlagSet(path, flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8844", "patcheckod base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get(*addr + path)
	if err != nil {
		return err
	}
	raw, err := readAll(resp)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(raw)
	return err
}

// readAll drains and closes the response, turning non-2xx statuses into
// errors carrying the typed rejection body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}
