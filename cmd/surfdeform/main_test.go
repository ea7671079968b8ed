package main

import (
	"bytes"
	"errors"
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
