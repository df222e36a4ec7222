// Command corpfarm is the experiment-farm dispatcher: it serializes a
// figure campaign into a content-addressed job queue, serves the HTTP/JSON
// work-pull protocol to corpfarmd workers, reassembles results
// positionally, and prints the merged figures — bit-identical to a
// single-process run no matter how many workers pulled the jobs or in
// what order.
//
// Usage:
//
//	corpfarm [flags]
//
//	-addr     dispatcher listen address            (default 127.0.0.1:8423;
//	          use :0 for an ephemeral port)
//	-figs     comma-separated figure IDs (those `corpbench -list` prints),
//	          or "campaign" for the full two-profile figure campaign
//	                                                (default campaign)
//	-quick    quick mode (small cluster, fewer sweep points)
//	-seed     base workload seed                    (default 1)
//	-local    in-process worker loops to run        (default 1 when
//	          -spawn is 0; 0 otherwise)
//	-spawn    corpfarmd worker processes to spawn locally
//	-corpfarmd-bin  corpfarmd binary for -spawn     (default: next to
//	          this executable, falling back to $PATH)
//	-slots    slots per spawned/local worker        (default 1)
//	-lease    job lease duration                    (default 2m)
//	-retries  attempts per job before permanent failure (default 3)
//	-progress print per-batch sweep progress to stderr
//	-serve    keep serving after the campaign (for external workers
//	          joining late; terminate with SIGINT)
//
// Example (two local worker processes on localhost):
//
//	corpfarm -quick -spawn 2 -figs fig06,ext-faults
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "corpfarm:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("corpfarm", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8423", "dispatcher listen address (:0 for ephemeral)")
	figs := fs.String("figs", "campaign", `figure IDs or "campaign" for the two-profile campaign`)
	quick := fs.Bool("quick", false, "quick mode (small cluster, fewer sweep points)")
	seed := fs.Int64("seed", 1, "base workload seed")
	local := fs.Int("local", -1, "in-process worker loops (-1: 1 unless -spawn is set)")
	spawn := fs.Int("spawn", 0, "corpfarmd worker processes to spawn locally")
	bin := fs.String("corpfarmd-bin", "", "corpfarmd binary for -spawn (default: sibling of this executable)")
	slots := fs.Int("slots", 1, "concurrent runs per worker")
	lease := fs.Duration("lease", 2*time.Minute, "job lease duration")
	retries := fs.Int("retries", 3, "attempts per job before permanent failure")
	progress := fs.Bool("progress", false, "print per-batch sweep progress to stderr")
	serve := fs.Bool("serve", false, "keep serving after the campaign for late workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags stop at the first non-flag word)", fs.Arg(0))
	}
	var specs []experiments.Spec // empty: the campaign
	if *figs != "campaign" {
		for _, id := range strings.Split(*figs, ",") {
			s, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				return fmt.Errorf("-figs: %w", err)
			}
			specs = append(specs, s)
		}
	}

	d := farm.NewDispatcher(farm.Config{
		Lease:       *lease,
		MaxAttempts: *retries,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "corpfarm: "+format+"\n", a...)
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Every handler answers from memory in microseconds (pull is a poll,
	// not a long-poll), so these only ever cut off a peer that stalls
	// mid-request or never reads its response.
	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "corpfarm: dispatcher on %s\n", baseURL)

	// Workers: in-process loops (cheap, same binary) and/or spawned
	// corpfarmd processes (the distributed deployment, exercised locally).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nLocal := *local
	if nLocal < 0 {
		if *spawn > 0 {
			nLocal = 0
		} else {
			nLocal = 1
		}
	}
	workerDone := make(chan error, nLocal)
	for i := 0; i < nLocal; i++ {
		w := &farm.Worker{BaseURL: baseURL, ID: fmt.Sprintf("local-%d", i), Slots: *slots}
		go func() { workerDone <- w.Serve(ctx) }()
	}
	var procs []*exec.Cmd
	for i := 0; i < *spawn; i++ {
		path, err := corpfarmdPath(*bin)
		if err != nil {
			return err
		}
		cmd := exec.Command(path,
			"-dispatcher", baseURL,
			"-id", fmt.Sprintf("spawned-%d", i),
			"-slots", fmt.Sprint(*slots))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn corpfarmd: %w", err)
		}
		procs = append(procs, cmd)
	}

	o := corp.Options{
		Seed:     *seed,
		Quick:    *quick,
		RunBatch: d.RunBatch,
	}
	if *progress {
		// Progress/ETA from the dispatcher's own accounting: batch-local
		// completion counts plus the global status line.
		o.RunBatch = func(cfgs []sim.Config) ([]*sim.Result, error) {
			b, err := d.Submit(cfgs)
			if err != nil {
				return nil, err
			}
			return b.Wait(func(done, total int) {
				st := d.Status()
				fmt.Fprintf(os.Stderr, "corpfarm: batch %d/%d done (queue: %d pending, %d leased, ETA %.0fs)\n",
					done, total, st.Pending, st.Leased, st.ETASeconds)
			})
		}
	}

	var figures []*corp.Figure
	if len(specs) == 0 {
		if figures, err = experiments.Campaign(o); err != nil {
			return err
		}
	}
	for _, s := range specs {
		f, err := s.Reproduce(o)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	}
	for _, f := range figures {
		fmt.Fprint(out, f.String())
	}
	c := d.Counters()
	fmt.Fprintf(out, "farm: %d configs submitted, %d distinct jobs (%d dedup hits), %d distinct workloads, %d completed, %d retries, %d failed\n",
		c.Submitted, c.Jobs, c.DedupHits, c.DistinctWorkloads, c.Completed, c.Retries, c.Failed)

	if *serve {
		fmt.Fprintf(os.Stderr, "corpfarm: campaign done; still serving on %s (SIGINT to exit)\n", baseURL)
		return <-serveErr
	}
	d.Shutdown() // pulls now tell workers to exit
	for i := 0; i < nLocal; i++ {
		if werr := <-workerDone; werr != nil {
			fmt.Fprintf(os.Stderr, "corpfarm: local worker: %v\n", werr)
		}
	}
	for _, p := range procs {
		if werr := p.Wait(); werr != nil {
			fmt.Fprintf(os.Stderr, "corpfarm: corpfarmd: %v\n", werr)
		}
	}
	return srv.Close()
}

// corpfarmdPath resolves the worker binary: an explicit flag, a sibling of
// the corpfarm executable (the `make farm-smoke` layout), then $PATH.
func corpfarmdPath(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "corpfarmd")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if path, err := exec.LookPath("corpfarmd"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("corpfarmd binary not found (set -corpfarmd-bin)")
}
