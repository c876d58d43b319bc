// MPEG-4 encoding case study (paper §5): run a parallel video encoding
// job through the full APST-DV stack — the Figure 6 XML specification,
// callback load division over a real (synthetic) DV/AVI file, probing,
// and every DLS algorithm on the simulated GRAIL platform of 7
// non-dedicated processors.
//
// The paper wraps the external avisplit tool in a Perl callback script;
// here the equivalent splitter is a small Go function over the same
// frame-indexed container format. Each chunk it cuts is written to its
// own file, and the chunk files, opened together as one multi-file load,
// are verified to reassemble the original frames — the avimerge step.
//
//	go run ./examples/mpeg_encoding
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"apstdv/internal/divide"
	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/spec"
	"apstdv/internal/workload"
)

// The XML specification from Figure 6 of the paper, verbatim except for
// the smaller demo load (61 frames instead of 1,830 so the demo files
// stay small; the experiment below still uses the full 1,830).
const taskXML = `<task
 executable="run_mencoder.sh"
 arguments="input.avi mpeg4.avi"
 input="input.avi"
 output="mpeg4.avi"
>
 <divisibility
  input="input.avi"
  method="callback"
  load="61"
  callback="callback_avisplit.pl"
  arguments="input.avi"
  algorithm="rumr"
  probe="probe.avi"
  probe_load="7"
 />
</task>`

// frameBytes is the frame size of the synthetic DV container
// (workload.GenerateFrameContainer: a tiny header, then fixed-size
// frames, mirroring how avisplit cuts AVI files at frame boundaries).
const frameBytes = 4096

func main() {
	dir, err := os.MkdirTemp("", "apstdv-mpeg-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Step 1 (paper Figure 5): the user provides the input file and the
	// XML specification.
	task, err := spec.Parse(strings.NewReader(taskXML))
	if err != nil {
		log.Fatal(err)
	}
	frames := int(task.Divisibility.Load)
	inputPath := filepath.Join(dir, task.Divisibility.Input)
	if err := writeDemoVideo(inputPath, frames); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input %s: %d frames, %d bytes\n", task.Divisibility.Input, frames, fileSize(inputPath))

	// Step 2: the daemon divides the load through the callback method.
	divider, err := task.BuildDivider(dir)
	if err != nil {
		log.Fatal(err)
	}
	splitter := aviSplit{path: inputPath}

	// Demonstrate division + merge (avisplit | avimerge): cut the video
	// into 3 chunk files at the frame cuts a scheduler might request,
	// then open the chunk files as one multi-file load and verify that
	// reading it back reproduces the frame payloads.
	offset := 0.0
	var chunkPaths []string
	for i, want := range []float64{20.4, 41.9, float64(frames)} {
		cut := divider.CutAfter(offset, want)
		chunkPath := filepath.Join(dir, fmt.Sprintf("chunk-%d.avi", i+1))
		n, err := writeChunk(splitter, offset, cut-offset, chunkPath)
		if err != nil {
			log.Fatal(err)
		}
		chunkPaths = append(chunkPaths, chunkPath)
		fmt.Printf("chunk %d: frames [%.0f, %.0f) = %d bytes\n", i+1, offset, cut, n)
		offset = cut
	}
	merged, err := mergeChunks(chunkPaths)
	if err != nil {
		log.Fatal(err)
	}
	if err := verifyMerge(inputPath, merged, frames); err != nil {
		log.Fatal(err)
	}
	fmt.Println("avimerge check: reassembled chunks match the original frame payloads ✓")

	// Steps 3-7: run the full 1,830-frame encoding on the simulated
	// GRAIL platform with each algorithm, as §5.2 does (10 runs each).
	fmt.Println("\n§5.2 experimental runs — GRAIL, 7 CPUs, non-dedicated, r≈13.5:")
	app := workload.CaseStudy()
	platform := workload.GRAIL()
	fullDivider, err := divide.NewWorkUnits(int(app.TotalLoad))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %10s %8s\n", "algorithm", "makespan", "chunks")
	type row struct {
		name string
		mean float64
	}
	var rows []row
	for ai := range dls.PaperSet() {
		const runs = 10
		total := 0.0
		chunks := 0
		for run := 0; run < runs; run++ {
			alg := dls.PaperSet()[ai]
			backend, err := grid.New(platform, app, grid.Config{Seed: 500 + uint64(run)})
			if err != nil {
				log.Fatal(err)
			}
			tr, err := engine.Execute(context.Background(), engine.Request{
				Backend: backend, Algorithm: alg, App: app, Platform: platform,
				Config: engine.Config{
					ProbeLoad: workload.CaseStudyProbeLoad,
					Divider:   fullDivider,
				},
			})
			if err != nil {
				log.Fatal(err)
			}
			total += tr.Makespan()
			chunks = tr.BuildReport(len(platform.Workers)).Chunks
		}
		mean := total / 10
		rows = append(rows, row{dls.PaperSet()[ai].Name(), mean})
		fmt.Printf("%-12s %9.0fs %8d\n", rows[ai].name, mean, chunks)
	}
	best := rows[0]
	for _, r := range rows[1:] {
		if r.mean < best.mean {
			best = r
		}
	}
	fmt.Printf("\nbest: %s — the paper finds the adaptive algorithms (WF, RUMR) win\n", best.name)
	fmt.Println("on this non-dedicated platform, and RUMR's phase switch succeeds at γ≈20%.")
}

// writeDemoVideo creates the synthetic frame-indexed container.
func writeDemoVideo(path string, frames int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := workload.GenerateFrameContainer(f, frames, frameBytes, 1); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// aviSplit is the Go equivalent of the paper's callback_avisplit.pl: it
// extracts a frame range from the container.
type aviSplit struct{ path string }

// Materialize implements divide.Materializer over frame units.
func (a aviSplit) Materialize(offset, size float64) (io.ReadCloser, int64, error) {
	f, err := os.Open(a.path)
	if err != nil {
		return nil, 0, err
	}
	start, length := workload.FrameContainerOffset(int(offset), int(size), frameBytes)
	return struct {
		io.Reader
		io.Closer
	}{io.NewSectionReader(f, start, length), f}, length, nil
}

// writeChunk materializes one chunk into its own file, as a worker
// receives it.
func writeChunk(split aviSplit, offset, size float64, path string) (int64, error) {
	rc, _, err := split.Materialize(offset, size)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, rc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// mergeChunks is avimerge: it opens the chunk files as one logical load
// of frames and reads it back in order, one file (file boundaries are
// always cuts) at a time.
func mergeChunks(paths []string) ([]byte, error) {
	load, err := divide.NewMultiFileFromPaths(paths, frameBytes)
	if err != nil {
		return nil, err
	}
	var merged bytes.Buffer
	for offset := 0.0; offset < load.TotalLoad(); {
		end := load.CutAfter(offset, load.TotalLoad())
		rc, _, err := load.Materialize(offset, end-offset)
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(&merged, rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		offset = end
	}
	return merged.Bytes(), nil
}

func verifyMerge(inputPath string, merged []byte, frames int) error {
	orig, err := os.ReadFile(inputPath)
	if err != nil {
		return err
	}
	start, length := workload.FrameContainerOffset(0, frames, frameBytes)
	payload := orig[start:]
	if !bytes.Equal(payload, merged) {
		return fmt.Errorf("merged chunks (%d bytes) differ from original payload (%d bytes)", len(merged), len(payload))
	}
	if int64(len(merged)) != length {
		return fmt.Errorf("merged size %d != %d frames × %d bytes", len(merged), frames, frameBytes)
	}
	return nil
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return info.Size()
}
