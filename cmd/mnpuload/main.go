// Command mnpuload submits one simulation job to an mnpuserved daemon
// through the typed client, waits for it, and prints the canonical
// result bytes: exactly what `mnpusim -json` prints for the same
// configuration. It is the smoke scripts' building block.
//
//	mnpuload -addr http://localhost:8080 -workloads ncf,gpt2 -sharing +dwt
//
// The benchmark of the serving layer is bench/ (see bench/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mnpuload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mnpuload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://localhost:8080", "daemon base URL")
		wlFlag    = fs.String("workloads", "", "comma-separated workload names, one per core (required)")
		scale     = fs.String("scale", "tiny", "system scale: tiny, small, or paper")
		sharing   = fs.String("sharing", "", "sharing level: static, +d, +dw, or +dwt (default +dwt)")
		ideal     = fs.Bool("ideal", false, "run the solo Ideal baseline instead of a mix")
		timeout   = fs.Duration("timeout", 0, "job simulation timeout (0 = server default)")
		poll      = fs.Duration("poll", 25*time.Millisecond, "job status poll interval")
		waitTotal = fs.Duration("wait", 10*time.Minute, "overall deadline for the whole run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *wlFlag == "" {
		return fmt.Errorf("-workloads is required")
	}
	ctx, cancel := context.WithTimeout(ctx, *waitTotal)
	defer cancel()

	c := client.New(*addr)
	v, err := c.SubmitJob(ctx, api.JobSpec{
		Workloads: splitCSV(*wlFlag), Scale: *scale, Sharing: *sharing, Ideal: *ideal,
		TimeoutMS: timeout.Milliseconds(),
	})
	if err != nil {
		return err
	}
	if !v.Status.Terminal() {
		if v, err = c.WaitJob(ctx, v.ID, *poll); err != nil {
			return err
		}
	}
	if v.Status != api.StatusDone {
		return fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	result := []byte(v.Result)
	if len(result) == 0 {
		if result, err = c.JobResult(ctx, v.ID); err != nil {
			return err
		}
	}
	_, err = stdout.Write(result)
	return err
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
