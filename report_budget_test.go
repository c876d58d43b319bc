// report_budget_test.go pins the structure of the report path —
// everything a finished run says about itself — in allocations, not in
// time: each renderer appends into one buffer sized up front and each
// analysis counts before it allocates, so what they allocate does not
// grow with the number of records. DESIGN.md's "Report path" section
// states the budgets.
package main

import (
	"context"
	"io"
	"testing"

	"apstdv/internal/daemon"
	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/raceflag"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

const servedSmallXML = `<task executable="bench" input="virtual">
 <divisibility input="virtual" method="callback" callback="cb" load="16" algorithm="simple-1"/>
</task>`

func TestReportPathAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	// What the benchmark's report path sees — the 16-record job that
	// serve_closed_small submits, on a daemon like its own, and a
	// sim_paper run (Figure 2's UMR cell, probing on) — and a trace
	// twenty times as long, which must cost no more.
	platform := workload.DAS2(16)
	d, err := daemon.New(daemon.Config{Mode: daemon.ModeSim, Platform: platform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	var sub daemon.SubmitReply
	if err := d.Submit(daemon.SubmitArgs{
		TaskXML: servedSmallXML, SimApp: &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000},
	}, &sub); err != nil {
		t.Fatal(err)
	}
	d.Wait()
	var reply daemon.ReportReply
	if err := d.Report(daemon.ReportArgs{JobID: sub.JobID}, &reply); err != nil {
		t.Fatal(err)
	}

	run := func(p *model.Platform, app *model.Application, alg dls.Algorithm, ecfg engine.Config) *trace.Trace {
		t.Helper()
		backend, err := grid.New(p, app, grid.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := engine.Execute(context.Background(), engine.Request{
			Backend: backend, Algorithm: alg, App: app, Platform: p, Config: ecfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	spec := experiment.Figure2()
	paper := run(spec.Platform, spec.App(0.10), dls.NewUMR(), engine.Config{ProbeLoad: spec.ProbeLoad})
	long := run(spec.Platform, spec.App(0.10), dls.NewSimple(250), engine.Config{})
	if reply.CSV == "" || paper.Len() < 100 || long.Len() < 10*paper.Len() {
		t.Fatalf("traces of %d and %d records: want one of paper size and one ten times as long", paper.Len(), long.Len())
	}
	budget := func(what string, max float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(20, f); got > max {
			t.Errorf("%s: %.0f allocations, budget %.0f", what, got, max)
		}
	}
	workers := len(spec.Platform.Workers)
	for _, c := range []struct {
		name string
		tr   *trace.Trace
	}{{"paper trace", paper}, {"long trace", long}} {
		tr := c.tr
		budget(c.name+": WriteCSV", 2, func() { tr.WriteCSV(io.Discard) })
		budget(c.name+": Gantt", 3, func() { tr.Gantt(io.Discard, workers, 100) })
		budget(c.name+": BuildReport", 3, func() { tr.BuildReport(workers) })
		budget(c.name+": MeasureGamma", 3, func() { experiment.MeasureGamma(tr, spec.Platform) })
	}
	budget("Daemon.Report of the 16-record job", 8, func() {
		var r daemon.ReportReply
		if err := d.Report(daemon.ReportArgs{JobID: sub.JobID}, &r); err != nil {
			t.Fatal(err)
		}
	})
}
