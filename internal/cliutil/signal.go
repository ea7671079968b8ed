package cliutil

// This file holds the graceful-shutdown and exit-code helpers of the
// command-line tools: one signal → context bridge, one error → exit-code
// mapping, one end-of-run failure report, so every grid interrupts,
// drains, and resumes identically.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"surfdeformer/internal/mc"
)

// Process exit codes, documented in the README flag table. ExitUsage is
// produced by the flag package paths directly (os.Exit(2)); the other
// codes come from ExitCode.
const (
	ExitOK = 0
	// ExitFailure is an internal error: nothing (or nothing trustworthy)
	// was produced.
	ExitFailure = 1
	// ExitUsage is a command-line usage error.
	ExitUsage = 2
	// ExitPartial means the run was interrupted (SIGINT/SIGTERM) or some
	// grid points failed in isolation: every completed point is valid and
	// committed, and a -resume re-run computes only what is missing.
	ExitPartial = 3
)

// SignalContext returns a context canceled by the first SIGINT/SIGTERM.
// The first signal starts a graceful shutdown — dispatch stops at the
// next point/shard boundary, in-flight points drain, the store is synced
// on the way out — announced on w; a second signal aborts immediately
// with the conventional 128+SIGINT code. The returned stop function
// releases the signal handler (restoring default ^C behavior).
func SignalContext(prog string, w io.Writer) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(w, "%s: %v — draining in-flight points (interrupt again to abort without saving)\n", prog, sig)
			cancel()
		case <-ctx.Done():
			return
		}
		<-ch
		fmt.Fprintf(w, "%s: second interrupt — aborting\n", prog)
		os.Exit(130)
	}()
	return ctx, func() {
		signal.Stop(ch)
		cancel()
	}
}

// ExitCode maps a run error to the documented process exit code:
// interruption and isolated point failures are ExitPartial (completed
// work is valid and resumable), anything else is ExitFailure.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	var perrs *mc.PointErrors
	if errors.Is(err, mc.ErrCanceled) || errors.As(err, &perrs) {
		return ExitPartial
	}
	return ExitFailure
}

// ReportRunError prints what a non-nil run error means for the results on
// w: the per-point failure report (stacks included) for isolated
// failures, an interruption note for cancellation, and the bare error
// otherwise. Returns the exit code the process should use.
func ReportRunError(prog string, w io.Writer, err error) int {
	if err == nil {
		return ExitOK
	}
	var perrs *mc.PointErrors
	if errors.As(err, &perrs) {
		fmt.Fprintf(w, "%s: %s", prog, perrs.Report())
	}
	if errors.Is(err, mc.ErrCanceled) {
		fmt.Fprintf(w, "%s: interrupted: %v\n", prog, err)
		return ExitPartial
	}
	if perrs != nil {
		return ExitPartial
	}
	fmt.Fprintf(w, "%s: %v\n", prog, err)
	return ExitFailure
}

// ResumeHint prints how to pick the run back up after an interruption or
// partial failure. With a store, the completed points are already
// committed, so re-running the same command with -resume computes only
// what is missing; without one there is nothing persisted to build on.
func ResumeHint(prog string, w io.Writer, storePath string, resume bool) {
	if storePath == "" {
		fmt.Fprintf(w, "%s: no -store was set — completed points were not persisted; re-run with -store FILE -resume to make interruptions resumable\n", prog)
		return
	}
	// -resume goes right after the program name, not at the end: the flag
	// package stops parsing at the first positional argument (surfdeform's
	// experiment name), so a trailing flag would be silently ignored.
	args := os.Args[1:]
	if !resume {
		args = append([]string{"-resume"}, args...)
	}
	cmd := strings.Join(append([]string{os.Args[0]}, args...), " ")
	fmt.Fprintf(w, "%s: completed points are committed and synced in %s; resume with:\n  %s\n", prog, storePath, cmd)
}
