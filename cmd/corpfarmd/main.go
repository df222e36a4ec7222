// Command corpfarmd is the experiment-farm worker daemon: it pulls jobs
// from a corpfarm dispatcher over the HTTP/JSON work-pull protocol, runs
// each through the simulator (with the process-wide workload-snapshot
// cache, so shared traces are generated once per worker process), streams
// heartbeats and progress, and submits typed results. The daemon is
// stateless — kill it at any time and restart it; its abandoned leases
// expire on the dispatcher and are retried, and the fresh process simply
// pulls new work.
//
// Usage:
//
//	corpfarmd -dispatcher http://host:8423 [flags]
//
//	-dispatcher  dispatcher base URL (required)
//	-id          worker name in leases/status    (default host-pid)
//	-slots       concurrent pull→run→submit loops (default 1; the shared
//	             workpool budget keeps CORP's per-kind training
//	             goroutines from oversubscribing the machine)
//	-poll        idle re-poll interval            (default 500ms)
//	-heartbeat   lease-extension interval         (default 5s)
//	-v           verbose event logging
//
// Example:
//
//	corpfarmd -dispatcher http://127.0.0.1:8423 -slots 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/farm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "corpfarmd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("corpfarmd", flag.ContinueOnError)
	dispatcher := fs.String("dispatcher", "", "dispatcher base URL (required)")
	id := fs.String("id", "", "worker name (default host-pid)")
	slots := fs.Int("slots", 1, "concurrent pull→run→submit loops")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle re-poll interval")
	heartbeat := fs.Duration("heartbeat", 5*time.Second, "lease-extension interval")
	verbose := fs.Bool("v", false, "verbose event logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags stop at the first non-flag word)", fs.Arg(0))
	}
	if *dispatcher == "" {
		return fmt.Errorf("-dispatcher is required")
	}
	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	w := &farm.Worker{
		BaseURL:   *dispatcher,
		ID:        *id,
		Slots:     *slots,
		Poll:      *poll,
		Heartbeat: *heartbeat,
	}
	if *verbose {
		w.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "corpfarmd[%s]: "+format+"\n", append([]any{*id}, a...)...)
		}
	}

	// SIGINT/SIGTERM cancel the loops; a clean dispatcher shutdown signal
	// ends Serve with nil.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return w.Serve(ctx)
}
