// XML workflow: the full APST-DV user experience from files on disk —
// exactly the paper's step-by-step (Figure 5) — without touching the Go
// API beyond main():
//
//  1. generate an input file (probegen's library form);
//
//  2. write the task XML (Figure 1 schema) to disk and read it back,
//     preview the first chunk its division method cuts from the input,
//     and parse a resource XML describing a two-cluster platform with a
//     batch scheduler;
//
//  3. start an in-process daemon on that platform;
//
//  4. submit the job through the client console library, wait, and print
//     the report with its per-worker timeline.
//
//     go run ./examples/xml_workflow
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/spec"
	"apstdv/internal/workload"
)

const resourcesXML = `<resources>
 <cluster name="near" bandwidth="1000000" commlatency="0.5" complatency="0.2">
  <host name="near-1" speed="1.0"/>
  <host name="near-2" speed="1.0"/>
  <host name="near-3" speed="0.8"/>
 </cluster>
 <cluster name="far" bandwidth="250000" commlatency="4.0" complatency="0.8">
  <batch cycleinterval="10"/>
  <host name="far-1" speed="1.2" cpus="2"/>
 </cluster>
</resources>`

func main() {
	dir, err := os.MkdirTemp("", "apstdv-xml-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Step 1: the user's input data — 2,000 newline-separated records.
	inputPath := filepath.Join(dir, "records.txt")
	f, err := os.Create(inputPath)
	if err != nil {
		log.Fatal(err)
	}
	total, err := workload.GenerateRecords(f, 2000, 200, 800, '\n', 42)
	if err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("input: %d records, %d bytes\n", 2000, total)

	// Step 2: the specifications.
	taskXML := `<task executable="process_records" input="records.txt">
 <divisibility input="records.txt" method="uniform" steptype="separator"
   separator="&#10;" algorithm="fixed-rumr" probe_load="` + fmt.Sprint(total/100) + `"/>
</task>`
	taskPath := filepath.Join(dir, "task.xml")
	if err := os.WriteFile(taskPath, []byte(taskXML), 0o644); err != nil {
		log.Fatal(err)
	}
	task, err := spec.ParseFile(taskPath)
	if err != nil {
		log.Fatal(err)
	}
	// Preview the division the daemon will make: a chunk of about 1% of
	// the load, cut at a record boundary and read from the input file.
	divider, err := task.BuildDivider(dir)
	if err != nil {
		log.Fatal(err)
	}
	materializer, err := task.BuildMaterializer(dir)
	if err != nil {
		log.Fatal(err)
	}
	cut := divider.CutAfter(0, divider.TotalLoad()/100)
	rc, _, err := materializer.Materialize(0, cut)
	if err != nil {
		log.Fatal(err)
	}
	chunk, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		log.Fatal(err)
	}
	if len(chunk) == 0 || chunk[len(chunk)-1] != '\n' {
		log.Fatalf("first chunk of %d bytes does not end on a record boundary", len(chunk))
	}
	fmt.Printf("task %s: %s division; first chunk [0, %.0f) holds %d whole records\n",
		filepath.Base(taskPath), task.Divisibility.Method, cut, bytes.Count(chunk, []byte{'\n'}))

	res, err := spec.ParseResources(strings.NewReader(resourcesXML))
	if err != nil {
		log.Fatal(err)
	}
	platform, err := res.Platform("two-cluster-lab")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform: %d workers in clusters %v (cluster 'far' behind a 10s-cycle batch scheduler)\n",
		len(platform.Workers), platform.Clusters())

	// Step 3: the daemon.
	d, err := daemon.New(daemon.Config{
		Mode:     daemon.ModeSim,
		Platform: platform,
		Seed:     7,
		SpecDir:  dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go d.ServeFrame(ln)

	// Step 4: the client session.
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Submit(taskXML, "", "", &daemon.SimApp{UnitCost: 0.004, BytesPerUnit: 1, Gamma: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted job %d: algorithm %s, load %.0f bytes\n", reply.JobID, reply.Algorithm, reply.TotalLoad)
	ctx, cancelWait := context.WithTimeout(context.Background(), time.Minute)
	defer cancelWait()
	job, err := c.WaitDone(ctx, reply.JobID, 20*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	if job.State != daemon.JobDone {
		log.Fatalf("job %s: %s", job.State, job.Err)
	}
	rep, err := c.Report(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Summary)
	fmt.Print(rep.Gantt)
}
