package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"surfdeformer/internal/experiments"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/report"
)

// show prints nothing for nil rows and prints partial rows in every format,
// returning the run error either way, so a grid's finished rows reach
// stdout before its failure report.
func TestShow(t *testing.T) {
	perrs := &mc.PointErrors{Total: 2, Failures: []mc.PointFailure{{Index: 1, Err: errors.New("boom"), Attempts: 1}}}
	partial := []experiments.Fig11bRow{{D: 9, NumDefects: 4, ASCMean: 7.25, SurfMean: 8.5}}
	for _, format := range []report.Format{report.Text, report.CSV, report.JSON} {
		var out bytes.Buffer
		if err := show(&out, format, nil, perrs, experiments.RenderFig11b, experiments.Fig11bTable); err != perrs || out.Len() != 0 {
			t.Errorf("%s, nil rows: printed %q, err %v; want nothing and the run error", format, out.String(), err)
		}

		out.Reset()
		err := show(&out, format, partial, perrs, experiments.RenderFig11b, experiments.Fig11bTable)
		if err != perrs {
			t.Errorf("%s, partial rows: err %v, want the run error", format, err)
		}
		if !strings.Contains(out.String(), "7.25") || !strings.Contains(out.String(), "8.5") {
			t.Errorf("%s, partial rows: output %q lacks the finished row", format, out.String())
		}
	}
}

// TestMain lets the tests run the command: a test binary started with
// SURFDEFORM_TEST_ARGS set runs main on those arguments instead of the
// tests (see wantFailure).
func TestMain(m *testing.M) {
	if args := os.Getenv("SURFDEFORM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"surfdeform"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the command on args (split at white space) in a
// re-executed test binary and returns its stdout, its stderr and the error
// of its exit.
func runCommand(args string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SURFDEFORM_TEST_ARGS="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// wantFailure runs the command on args and requires exit status 1 with
// nothing on stdout.
func wantFailure(t *testing.T, args string) {
	t.Helper()
	stdout, stderr, err := runCommand(args)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("%s: exit %v, want status 1; stderr:\n%s", args, err, stderr)
	}
	if stdout != "" {
		t.Errorf("%s printed a table:\n%s", args, stdout)
	}
}

// TestServesOldStores resumes from stores an earlier build of the command
// wrote (testdata/NAME.jsonl, with its stdout in testdata/NAME.txt), each
// from a temporary copy: the run must compute no point and print the
// committed table byte for byte. A change that moves stored results, such
// as a trajEngineRev bump, fails here until the fixture is regenerated on
// purpose: delete NAME.jsonl, rerun the command below with -store
// testdata/NAME.jsonl from this directory, and save its stdout as
// NAME.txt.
func TestServesOldStores(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"traj", "-quick -trials 2 -seed 3 traj"},
		{"fig11c", "-quick -seed 3 fig11c"},
		{"calibrate", "-d 3,5 -p 4e-3 -shots 2000 -rounds 3 calibrate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := os.ReadFile(filepath.Join("testdata", tc.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			store := filepath.Join(t.TempDir(), tc.name+".jsonl")
			if err := os.WriteFile(store, rows, 0o644); err != nil {
				t.Fatal(err)
			}
			args := "-store " + store + " -resume " + tc.args
			stdout, stderr, err := runCommand(args)
			if err != nil {
				t.Fatalf("%s: %v; stderr:\n%s", args, err, stderr)
			}
			if !strings.Contains(stderr, "computed 0 point(s)") {
				t.Errorf("%s recomputed stored points; stderr:\n%s", args, stderr)
			}
			if stdout != string(want) {
				t.Errorf("%s printed\n%s\nwant the committed table\n%s", args, stdout, want)
			}
		})
	}
}

// TestNaNFlagsFail runs the command with each flag that feeds a float
// range check set to NaN — each traj flag on a quick scan, -target-rse on a
// tiny calibration, where -1 must fail as well. NaN compares false against
// every bound, so a check that NaN passes would run on it and exit 0; each
// run must instead exit 1 with nothing on stdout.
func TestNaNFlagsFail(t *testing.T) {
	for _, name := range []string{"-reweight-factor", "-halflife", "-device-defect-rate", "-super-threshold"} {
		wantFailure(t, "-quick -trials 1 "+name+" NaN traj")
	}
	for _, v := range []string{"NaN", "-1"} {
		wantFailure(t, "-target-rse "+v+" -d 3 -p 4e-3 -shots 200 -rounds 3 calibrate")
	}
}

// TestNonPositiveTrialsFail runs every experiment that takes -trials as its
// sample count with 0 and with -3 trials. Each must exit 1 with nothing on
// stdout before any point runs, instead of printing NaN or zero columns.
// fig11c and fig13b read -trials only at full scale, so they run without
// -quick.
func TestNonPositiveTrialsFail(t *testing.T) {
	for _, trials := range []string{"0", "-3"} {
		for _, exp := range []string{"table2", "fig12", "fig13a", "pipeline", "traj"} {
			wantFailure(t, "-quick -trials "+trials+" "+exp)
		}
		wantFailure(t, "-trials "+trials+" fig11c")
		wantFailure(t, "-trials "+trials+" fig13b")
	}
}
