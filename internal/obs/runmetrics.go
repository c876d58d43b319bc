package obs

// RunMetrics is the engine's metric set, kept as a Sink of the event
// stream: every series is derived from the events it receives, one
// atomic update per event that moves it. One RunMetrics may be shared
// across runs and fed from several at once (the daemon aggregates all
// jobs into its /metrics totals).
type RunMetrics struct {
	ChunksDispatched  *Counter
	ChunksDone        *Counter
	ProbesDone        *Counter
	Recalibrations    *Counter
	BytesSent         *Counter
	LoadCompleted     *Counter
	UplinkBusySeconds *Counter
	TransferSeconds   *Histogram
	ComputeSeconds    *Histogram
	// Fault-path counters: stage-deadline expiries, chunk attempts
	// returned for re-dispatch (with the load they carried), and workers
	// removed from service.
	ChunkTimeouts *Counter
	ChunkRetries  *Counter
	LoadRetried   *Counter
	WorkersLost   *Counter
}

// NewRunMetrics registers the engine metric set under the apstdv_
// namespace.
func NewRunMetrics(r *Registry) *RunMetrics {
	return &RunMetrics{
		ChunksDispatched:  r.Counter("apstdv_chunks_dispatched_total", "Chunks handed to the uplink."),
		ChunksDone:        r.Counter("apstdv_chunks_done_total", "Chunks whose output arrived back at the master."),
		ProbesDone:        r.Counter("apstdv_probes_done_total", "Probing-round calibration chunks completed."),
		Recalibrations:    r.Counter("apstdv_recalibrations_total", "Periodic start-up-cost re-measurements."),
		BytesSent:         r.Counter("apstdv_bytes_sent_total", "Input bytes pushed over the master uplink."),
		LoadCompleted:     r.Counter("apstdv_load_completed_total", "Load units computed (non-probe)."),
		UplinkBusySeconds: r.Counter("apstdv_uplink_busy_seconds_total", "Seconds the serialized master uplink spent transferring."),
		TransferSeconds:   r.Histogram("apstdv_chunk_transfer_seconds", "Per-chunk uplink transfer time.", DurationBuckets),
		ComputeSeconds:    r.Histogram("apstdv_chunk_compute_seconds", "Per-chunk worker compute time.", DurationBuckets),
		ChunkTimeouts:     r.Counter("apstdv_chunk_timeouts_total", "Chunk attempts abandoned after a stage deadline expired."),
		ChunkRetries:      r.Counter("apstdv_chunk_retries_total", "Failed chunk attempts returned for re-dispatch."),
		LoadRetried:       r.Counter("apstdv_load_retried_total", "Load units pulled back from failed attempts."),
		WorkersLost:       r.Counter("apstdv_workers_lost_total", "Workers removed from service by the retry policy."),
	}
}

// EmitPtr implements Sink: it moves the series the event carries and
// ignores every other type. Measurements (probes and recalibrations)
// occupy the uplink, so their transfers count towards its busy time,
// but they are not dispatched chunks.
func (m *RunMetrics) EmitPtr(ev *Event) {
	switch ev.Type {
	case UplinkBusy:
		if !ev.Probe {
			m.ChunksDispatched.Inc()
			m.BytesSent.Add(ev.Bytes)
		}
	case UplinkIdle:
		m.UplinkBusySeconds.Add(ev.Dur)
		m.TransferSeconds.Observe(ev.Dur)
	case ChunkDone:
		m.ChunksDone.Inc()
		m.LoadCompleted.Add(ev.Size)
		m.ComputeSeconds.Observe(ev.CompEnd - ev.CompStart)
	case ProbeResult:
		m.ProbesDone.Inc()
	case Recalibrate:
		m.Recalibrations.Inc()
	case ChunkTimeout:
		m.ChunkTimeouts.Inc()
	case ChunkRetry:
		m.ChunkRetries.Inc()
		m.LoadRetried.Add(ev.Size)
	case WorkerLost:
		m.WorkersLost.Inc()
	}
}

// GridMetrics is the simulated backend's metric set: queue pressure and
// platform-model costs invisible at the engine layer. Nil disables.
type GridMetrics struct {
	ComputeQueueDepth   *Histogram
	BatchHoldSeconds    *Histogram
	DownlinkBusySeconds *Counter
}

// NewGridMetrics registers the grid metric set.
func NewGridMetrics(r *Registry) *GridMetrics {
	return &GridMetrics{
		ComputeQueueDepth:   r.Histogram("apstdv_grid_compute_queue_depth", "Waiting jobs at a worker CPU when a new one arrives.", DepthBuckets),
		BatchHoldSeconds:    r.Histogram("apstdv_grid_batch_hold_seconds", "Batch-scheduler hold before a job starts.", DurationBuckets),
		DownlinkBusySeconds: r.Counter("apstdv_grid_downlink_busy_seconds_total", "Seconds the output-return downlink spent transferring."),
	}
}

// EnqueueCompute records the queue depth seen by an arriving job.
func (m *GridMetrics) EnqueueCompute(depth int) {
	if m == nil {
		return
	}
	m.ComputeQueueDepth.Observe(float64(depth))
}

// BatchHold records one batch-queue start delay.
func (m *GridMetrics) BatchHold(seconds float64) {
	if m == nil {
		return
	}
	m.BatchHoldSeconds.Observe(seconds)
}

// DownlinkBusy records output-return occupancy.
func (m *GridMetrics) DownlinkBusy(seconds float64) {
	if m == nil {
		return
	}
	m.DownlinkBusySeconds.Add(seconds)
}
