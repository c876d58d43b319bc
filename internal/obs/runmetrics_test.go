package obs

import (
	"sync"
	"testing"
)

// runMetricsStream is a synthetic run stream with every event type the
// taxonomy has, a probe transfer on the uplink (which is busy time but
// not a dispatch) and a type the sink has never heard of.
func runMetricsStream() []Event {
	return []Event{
		{Type: JobQueued, Worker: -1, Class: "normal"},
		{Type: JobStarted, Worker: -1, Class: "normal", Dur: 3},
		{Type: ProbeStart, Worker: -1, Workers: 2},
		{Type: UplinkBusy, Worker: 0, Probe: true, Bytes: 64},
		{Type: UplinkIdle, Worker: 0, Probe: true, Dur: 0.25},
		{Type: ProbeResult, Worker: 0, Size: 50},
		{Type: ProbeResult, Worker: 1, Size: 50},
		{Type: PlanDone, Worker: -1, Workers: 2, TotalLoad: 300},
		{Type: RUMRSwitch, Worker: -1, Gamma: 0.1, Switched: true},
		{Type: Dispatch, Worker: 0, Chunk: 1, Size: 100, Bytes: 1000},
		{Type: UplinkBusy, Worker: 0, Chunk: 1, Bytes: 1000},
		{Type: UplinkIdle, Worker: 0, Chunk: 1, Dur: 2},
		{Type: ChunkDone, Worker: 0, Chunk: 1, Size: 100, CompStart: 2, CompEnd: 7},
		{Type: Dispatch, Worker: 1, Chunk: 2, Size: 200, Bytes: 2000},
		{Type: UplinkBusy, Worker: 1, Chunk: 2, Bytes: 2000},
		{Type: UplinkIdle, Worker: 1, Chunk: 2, Dur: 4},
		{Type: ChunkTimeout, Worker: 1, Chunk: 2, Size: 200, Dur: 30, Attempt: 1},
		{Type: ChunkRetry, Worker: 1, Chunk: 2, Size: 200, Attempt: 1, Err: "late"},
		{Type: WorkerBlacklisted, Worker: 1, Workers: 1},
		{Type: WorkerLost, Worker: 1, Size: 200, Workers: 1},
		{Type: PeerTransfer, Worker: 0, Src: 1, Chunk: 2, Bytes: 2000},
		{Type: ChunkRedistributed, Worker: 0, Src: 1, Chunk: 2, Size: 200, Dur: 1},
		{Type: ChunkDone, Worker: 0, Chunk: 2, Size: 200, CompStart: 10, CompEnd: 10.5, Attempt: 2},
		{Type: UplinkBusy, Worker: 0, Probe: true, Bytes: 8},
		{Type: UplinkIdle, Worker: 0, Probe: true, Dur: 0.5},
		{Type: Recalibrate, Worker: 0, CommLatency: 0.5, CompLatency: 0.1},
		{Type: "from_a_future_engine", Worker: 0, Size: 1e9, Bytes: 1e9, Dur: 1e9},
		{Type: JobReshared, Worker: -1, Workers: 1, Size: 1},
		{Type: RunFinished, Worker: -1, Makespan: 11},
		{Type: JobCancelled, Worker: -1, Class: "normal"},
		{Type: JobRejected, Worker: -1, Class: "normal"},
	}
}

// TestRunMetricsDerivesEverySeriesFromEvents feeds the sink one of
// every event type and checks each counter and histogram against what
// the stream carries.
func TestRunMetricsDerivesEverySeriesFromEvents(t *testing.T) {
	m := NewRunMetrics(NewRegistry())
	evs := runMetricsStream()
	for i := range evs {
		m.EmitPtr(&evs[i])
	}
	for _, c := range []struct {
		name string
		c    *Counter
		want float64
	}{
		{"chunks_dispatched", m.ChunksDispatched, 2},
		{"bytes_sent", m.BytesSent, 3000},
		{"uplink_busy_seconds", m.UplinkBusySeconds, 0.25 + 2 + 4 + 0.5},
		{"chunks_done", m.ChunksDone, 2},
		{"load_completed", m.LoadCompleted, 300},
		{"probes_done", m.ProbesDone, 2},
		{"recalibrations", m.Recalibrations, 1},
		{"chunk_timeouts", m.ChunkTimeouts, 1},
		{"chunk_retries", m.ChunkRetries, 1},
		{"load_retried", m.LoadRetried, 200},
		{"workers_lost", m.WorkersLost, 1},
	} {
		if got := c.c.Value(); got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
	for _, h := range []struct {
		name  string
		h     *Histogram
		count int64
		sum   float64
	}{
		{"chunk_transfer_seconds", m.TransferSeconds, 4, 0.25 + 2 + 4 + 0.5},
		{"chunk_compute_seconds", m.ComputeSeconds, 2, 5 + 0.5},
	} {
		if got := h.h.Count(); got != h.count {
			t.Errorf("%s count = %d, want %d", h.name, got, h.count)
		}
		if got := h.h.Sum(); got != h.sum {
			t.Errorf("%s sum = %g, want %g", h.name, got, h.sum)
		}
	}
}

// TestRunMetricsConcurrentEmit feeds one RunMetrics from several runs at
// once, as the daemon does with its concurrent jobs; run it under -race.
func TestRunMetricsConcurrentEmit(t *testing.T) {
	const runs = 8
	m := NewRunMetrics(NewRegistry())
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs := runMetricsStream()
			for i := range evs {
				m.EmitPtr(&evs[i])
			}
		}()
	}
	wg.Wait()
	if got := m.ChunksDispatched.Value(); got != 2*runs {
		t.Errorf("chunks_dispatched = %g, want %d", got, 2*runs)
	}
	if got := m.ChunksDone.Value(); got != 2*runs {
		t.Errorf("chunks_done = %g, want %d", got, 2*runs)
	}
	if got := m.LoadCompleted.Value(); got != 300*runs {
		t.Errorf("load_completed = %g, want %d", got, 300*runs)
	}
	if got := m.WorkersLost.Value(); got != runs {
		t.Errorf("workers_lost = %g, want %d", got, runs)
	}
	if got := m.TransferSeconds.Count(); got != 4*runs {
		t.Errorf("chunk_transfer_seconds count = %d, want %d", got, 4*runs)
	}
	if got := m.ComputeSeconds.Count(); got != 2*runs {
		t.Errorf("chunk_compute_seconds count = %d, want %d", got, 2*runs)
	}
}
