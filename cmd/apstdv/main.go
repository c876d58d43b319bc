// Command apstdv is the APST-DV client console: it submits divisible
// load applications to a running apstdvd daemon and inspects them.
//
//	apstdv -daemon 127.0.0.1:4321 algorithms
//	apstdv -daemon 127.0.0.1:4321 submit -spec app.xml [-algorithm rumr] [-priority high]
//	apstdv -daemon 127.0.0.1:4321 status -job 1
//	apstdv -daemon 127.0.0.1:4321 cancel -job 1
//	apstdv -daemon 127.0.0.1:4321 report -job 1 [-csv trace.csv]
//	apstdv -daemon 127.0.0.1:4321 run -spec app.xml   # submit + wait + report
//	apstdv -daemon 127.0.0.1:4321 jobs
//	apstdv -daemon 127.0.0.1:4321 events -job 1 -follow   # JSONL event tail
//	apstdv -daemon 127.0.0.1:4321 trace -job 1            # span tree (daemon needs -trace)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
)

func main() {
	daemonAddr := flag.String("daemon", "127.0.0.1:4321", "daemon address")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)

	c, err := client.Dial(*daemonAddr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	specPath := sub.String("spec", "", "task specification XML file")
	algorithm := sub.String("algorithm", "", "override the spec's algorithm")
	priority := sub.String("priority", "", "admission class: high, normal or low (default normal)")
	jobID := sub.Int("job", 0, "job ID")
	csvPath := sub.String("csv", "", "write the execution trace CSV here")
	gantt := sub.Bool("gantt", false, "print the per-worker execution timeline")
	unitCost := sub.Float64("unitcost", 0, "sim mode: seconds of compute per load unit")
	bytesPerUnit := sub.Float64("bytesperunit", 0, "sim mode: input bytes per load unit")
	gamma := sub.Float64("gamma", 0, "sim mode: per-unit compute uncertainty γ")
	wait := sub.Duration("wait", 10*time.Minute, "run: maximum time to wait for completion")
	follow := sub.Bool("follow", false, "events: keep polling until the job finishes")
	after := sub.Int64("after", -1, "events: only events with seq greater than this")
	if err := sub.Parse(flag.Args()[1:]); err != nil {
		fatal(err)
	}

	switch cmd {
	case "algorithms":
		names, err := c.Algorithms()
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "submit", "run":
		if *specPath == "" {
			fatal(fmt.Errorf("%s needs -spec", cmd))
		}
		xmlBytes, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		var simApp *daemon.SimApp
		if *unitCost > 0 || *bytesPerUnit > 0 || *gamma > 0 {
			simApp = &daemon.SimApp{UnitCost: *unitCost, BytesPerUnit: *bytesPerUnit, Gamma: *gamma}
		}
		reply, err := c.Submit(string(xmlBytes), *algorithm, *priority, simApp)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("job %d %s (algorithm %s, load %.0f units)\n", reply.JobID, reply.State, reply.Algorithm, reply.TotalLoad)
		if cmd == "run" {
			ctx, cancel := context.WithTimeout(context.Background(), *wait)
			job, err := c.WaitDone(ctx, reply.JobID, 100*time.Millisecond)
			cancel()
			if err != nil {
				fatal(err)
			}
			printJob(job)
			if job.State == daemon.JobDone {
				showReport(c, job.ID, *csvPath, *gantt)
			}
		}
	case "cancel":
		state, err := c.Cancel(*jobID)
		if err != nil {
			fatal(err)
		}
		if state == daemon.JobCancelled {
			fmt.Printf("job %d cancelled\n", *jobID)
		} else {
			fmt.Printf("job %d %s (cancellation requested; poll status for the terminal state)\n", *jobID, state)
		}
	case "status":
		job, err := c.Status(*jobID)
		if err != nil {
			fatal(err)
		}
		printJob(job)
	case "report":
		showReport(c, *jobID, *csvPath, *gantt)
	case "jobs":
		reply, err := c.ListJobs()
		if err != nil {
			fatal(err)
		}
		if reply.Policy != "" {
			fmt.Printf("cosched policy: %s\n", reply.Policy)
		}
		for _, j := range reply.Jobs {
			printJob(j)
		}
	case "events":
		sink := obs.NewJSONL(os.Stdout)
		if *follow {
			// Resume from -after (default -1 = everything retained): a
			// console restarted after a disconnect passes its last seen
			// seq and never re-prints events it already delivered.
			ctx, cancel := context.WithTimeout(context.Background(), *wait)
			// Each event is flushed as it arrives, so a watcher sees it
			// while the job runs. A write error sticks in the sink and
			// the Flush below reports it.
			err := c.FollowEventsFrom(ctx, *jobID, *after, 100*time.Millisecond,
				func(ev obs.Event) {
					sink.EmitPtr(&ev)
					sink.Flush()
				})
			cancel()
			if ferr := sink.Flush(); err == nil {
				err = ferr
			}
			if err != nil {
				fatal(err)
			}
			break
		}
		evs, _, dropped, err := c.Events(*jobID, *after)
		if err != nil {
			fatal(err)
		}
		for i := range evs {
			sink.EmitPtr(&evs[i])
		}
		if err := sink.Flush(); err != nil {
			fatal(err)
		}
		if dropped {
			fmt.Fprintln(os.Stderr, "apstdv: ring dropped events before this tail (job outran the buffer)")
		}
	case "trace":
		reply, err := c.Trace(*jobID)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("job %d  trace %#x  (%d spans retained)\n", *jobID, reply.TraceID, len(reply.Spans))
		otrace.WriteTree(os.Stdout, reply.Spans)
	default:
		usage()
	}
}

func printJob(j daemon.Job) {
	prio := j.Priority
	if prio == "" {
		prio = "normal"
	}
	switch j.State {
	case daemon.JobDone:
		fmt.Printf("job %d [%s/%s] %s: makespan %.1fs, %d chunks\n", j.ID, j.Algorithm, prio, j.State, j.Makespan, j.Chunks)
	case daemon.JobFailed, daemon.JobCancelled, daemon.JobRejected:
		fmt.Printf("job %d [%s/%s] %s: %s\n", j.ID, j.Algorithm, prio, j.State, j.Err)
	case daemon.JobQueued:
		fmt.Printf("job %d [%s/%s] %s at position %d (submitted %s ago)\n", j.ID, j.Algorithm, prio, j.State, j.QueuePos, time.Since(j.Submitted).Round(time.Millisecond))
	default:
		fmt.Printf("job %d [%s/%s] %s (submitted %s ago)%s\n", j.ID, j.Algorithm, prio, j.State, time.Since(j.Submitted).Round(time.Millisecond), shareSummary(j))
	}
}

// shareSummary renders a running job's worker grant: which workers it
// holds and, when the co-scheduler splits them, each fraction.
func shareSummary(j daemon.Job) string {
	if len(j.Leased) == 0 {
		return ""
	}
	full := true
	for _, s := range j.Shares {
		if s != 1 {
			full = false
			break
		}
	}
	if full || len(j.Shares) != len(j.Leased) {
		return fmt.Sprintf(", workers %v", j.Leased)
	}
	parts := make([]string, len(j.Leased))
	for i, w := range j.Leased {
		parts[i] = fmt.Sprintf("%d:%.2f", w, j.Shares[i])
	}
	return ", worker shares " + strings.Join(parts, " ")
}

func showReport(c *client.Client, jobID int, csvPath string, gantt bool) {
	rep, err := c.Report(jobID)
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep.Summary)
	if gantt {
		fmt.Print(rep.Gantt)
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(rep.CSV), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", csvPath)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: apstdv [-daemon addr] <algorithms|submit|run|status|cancel|report|jobs|events|trace> [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "apstdv: %v\n", err)
	os.Exit(1)
}
