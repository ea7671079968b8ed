package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"surfdeformer/internal/store"
)

// OpenStore opens (or creates) the result store at path, reporting any
// tolerated corrupt lines and any crash repairs (torn tail truncated,
// stale GC temps removed) to stderr prefixed with the program name.
// syncPolicy is the -store-sync flag value ("never", "interval",
// "always").
func OpenStore(prog, path, syncPolicy string) (*store.Store, error) {
	policy, err := store.ParseSyncPolicy(syncPolicy)
	if err != nil {
		return nil, err
	}
	st, err := store.OpenWith(path, store.Options{Sync: policy})
	if err != nil {
		return nil, err
	}
	if n := st.Corrupted(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: store %s: tolerated %d corrupt line(s)\n", prog, path, n)
	}
	if rep := st.Repair(); rep.Repaired() {
		if rep.TruncatedBytes > 0 || rep.DroppedLines > 0 {
			fmt.Fprintf(os.Stderr, "%s: store %s: repaired torn tail — truncated %d byte(s), dropped %d uncommitted row(s) (recomputed on resume)\n",
				prog, path, rep.TruncatedBytes, rep.DroppedLines)
		}
		if rep.TempsRemoved > 0 {
			fmt.Fprintf(os.Stderr, "%s: store %s: removed %d stale gc temp file(s)\n", prog, path, rep.TempsRemoved)
		}
	}
	return st, nil
}

// AddStoreSyncFlag registers the shared -store-sync flag. Call before
// flag.Parse.
func AddStoreSyncFlag() *string {
	return flag.String("store-sync", "interval",
		"store fsync policy: never, interval (at most ~1/s), always (per append)")
}

// StoreMaintenance runs the -store-ls/-store-gc maintenance modes: gc
// compacts the store in place, ls prints one line per merged point to w.
// It returns an error when neither mode has a store to act on.
func StoreMaintenance(prog string, st *store.Store, w io.Writer, ls, gc bool) error {
	if st == nil {
		return fmt.Errorf("-store-ls/-store-gc require -store")
	}
	if gc {
		if err := st.GC(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: store compacted to %d point(s)\n", prog, st.Len())
	}
	if ls {
		ListStore(st, w)
		fmt.Fprintf(os.Stderr, "%s: %d point(s) in %s\n", prog, st.Len(), st.Path())
	}
	return nil
}

// ListStore prints one line per stored point: merged counts, the rate
// with its recomputed 95% Wilson interval, and segment bookkeeping.
// Trial-style points (no Monte-Carlo counts) render with dashes.
func ListStore(st *store.Store, w io.Writer) {
	fmt.Fprintf(w, "%-34s %-10s %-4s %-10s %-10s %-12s %-26s %-8s\n",
		"key", "kind", "seg", "shots", "failures", "rate", "95% CI", "complete")
	for _, key := range st.Keys() {
		pt, _ := st.Get(key)
		if pt.Shots > 0 {
			fmt.Fprintf(w, "%-34s %-10s %-4d %-10d %-10d %-12.3e [%.3e, %.3e]  %v\n",
				key, pt.Kind, pt.Segments, pt.Shots, pt.Failures, pt.Rate, pt.CILow, pt.CIHigh, pt.Complete)
		} else {
			fmt.Fprintf(w, "%-34s %-10s %-4d %-10s %-10s %-12s %-26s %v\n",
				key, pt.Kind, pt.Segments, "-", "-", "-", "-", pt.Complete)
		}
	}
}
