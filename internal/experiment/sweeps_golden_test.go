package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/model"
)

// cliRuns is cmd/experiments' -runs default, which it applies to every
// experiment it configures.
const cliRuns = 10

// renderLikeCLI produces what `experiments -run name -parallel width`
// prints, so each manifest line can be checked from a shell:
//
//	experiments -run failures | sha256sum
func renderLikeCLI(name string, width int) (string, error) {
	var b strings.Builder
	spec := func(s *Spec) (*Result, error) {
		s.Runs, s.Parallelism = cliRuns, width
		res, err := s.Run()
		if err == nil {
			fmt.Fprintln(&b, res.Table())
		}
		return res, err
	}
	sweep := func() error {
		rs := DefaultRobustnessSweep()
		rs.Runs, rs.Parallelism = cliRuns, width
		cells, err := rs.Run()
		fmt.Fprintln(&b, RenderSweep(cells))
		return err
	}
	switch name {
	case "all":
		fmt.Fprintln(&b, Table1().Render())
		var figs []*Result
		for _, s := range All() {
			res, err := spec(s)
			if err != nil {
				return "", err
			}
			if strings.HasPrefix(s.ID, "fig") {
				figs = append(figs, res)
			}
		}
		d := Discussion(figs)
		fmt.Fprintln(&b, "§4.3 discussion averages across Figures 2-4 (slowdown vs best algorithm):")
		fmt.Fprintf(&b, "  SIMPLE-1: %+.1f%%   (paper: ~28%%)\n", d.AvgSimple1Pct)
		fmt.Fprintf(&b, "  SIMPLE-5: %+.1f%%   (paper: ~18%%)\n", d.AvgSimple5Pct)
		fmt.Fprintf(&b, "  UMR under uncertainty: %+.1f%%   (paper: ~17%%)\n", d.AvgUMRPct)
		fmt.Fprintln(&b)
		err := sweep()
		return b.String(), err
	case "extended":
		_, err := spec(Extended())
		return b.String(), err
	case "sweep":
		err := sweep()
		return b.String(), err
	case "failures":
		fs := DefaultFailureSweep()
		fs.Runs, fs.Parallelism = cliRuns, width
		cells, err := fs.Run()
		fmt.Fprintln(&b, RenderFailures(cells))
		return b.String(), err
	case "redistrib":
		rs := DefaultRedistributionSweep()
		rs.Runs, rs.Parallelism = cliRuns, width
		cells, err := rs.Run()
		fmt.Fprintln(&b, RenderRedistribution(cells))
		return b.String(), err
	case "multijob":
		cells, err := DefaultMultiJobSweep().Run()
		fmt.Fprintln(&b, RenderMultiJob(cells))
		return b.String(), err
	}
	return "", fmt.Errorf("no experiment %q", name)
}

// derivedDigest hashes the columns no printed line carries at full
// precision — Table leaves them out and -derived rounds them: every
// Cell's UplinkUtil, IdleFraction and MeasuredGamma of All() at the
// CLI's run count, bit for bit.
func derivedDigest(width int) (string, error) {
	h := sha256.New()
	var word [8]byte
	for _, s := range All() {
		s.Runs, s.Parallelism = cliRuns, width
		res, err := s.Run()
		if err != nil {
			return "", err
		}
		for _, c := range res.Cells {
			for _, v := range [...]float64{c.UplinkUtil, c.IdleFraction, c.MeasuredGamma} {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// TestSweepOutputsMatchGoldenManifest pins every number the sweeps
// print: the rendered default output of each experiment the event-dump
// manifests do not cover must hash, at pool widths 1, 2 and 4, to the
// manifest captured from the CLI. The "derived" line is derivedDigest,
// the sweep columns the printed output rounds or omits. A mismatch is a
// behaviour change in the planner, the engine, the grid, the way a
// sweep seeds its runs or the way a cell reduces its runs.
func TestSweepOutputsMatchGoldenManifest(t *testing.T) {
	manifest, err := os.ReadFile(filepath.Join("testdata", "sweeps_golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(manifest)), "\n")
	if len(lines) != 7 {
		t.Fatalf("manifest has %d lines, want 7", len(lines))
	}
	widths := []int{1, 2, 4}
	if testing.Short() {
		widths = []int{2}
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed manifest line %q", line)
		}
		want, name := fields[0], fields[1]
		for _, width := range widths {
			var got string
			if name == "derived" {
				got, err = derivedDigest(width)
			} else {
				var out string
				out, err = renderLikeCLI(name, width)
				got = fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
			}
			if err != nil {
				t.Fatalf("%s at width %d: %v", name, width, err)
			}
			if got != want {
				t.Errorf("%s at width %d drifted from the golden manifest (got %s, want %s)", name, width, got, want)
			}
		}
	}
}

// TestSpecRunCallsAlgorithmsOncePerRun pins a contract the benchmark
// relies on to time each run of Spec.Run from outside: Algorithms is
// called once up front and then once at the start of every run, before
// that run's application is built, and nowhere else.
func TestSpecRunCallsAlgorithmsOncePerRun(t *testing.T) {
	s := Figure2()
	s.Runs = 3
	s.Parallelism = 1
	var calls []byte
	algs, app := s.Algorithms, s.App
	s.Algorithms = func() []dls.Algorithm {
		calls = append(calls, 'A')
		return algs()
	}
	s.App = func(gamma float64) *model.Application {
		calls = append(calls, 'p')
		return app(gamma)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, c := range res.Cells {
		runs += len(c.Makespans)
	}
	if want := "A" + strings.Repeat("Ap", runs); string(calls) != want {
		t.Errorf("Algorithms/App call order over %d runs:\n got %s\nwant %s", runs, calls, want)
	}
}
