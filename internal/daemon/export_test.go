package daemon

// Test bridges for package daemon_test, whose over-the-wire tests
// cannot reach unexported state (and cannot live in this package:
// internal/client imports it).

// SetPayloadBudget lowers the payload budget, the way in-package tests
// assign d.payloadMax directly.
func (d *Daemon) SetPayloadBudget(bytes int) {
	d.mu.Lock()
	d.payloadMax = bytes
	d.mu.Unlock()
}

// PayloadBytes returns the budgeted total: event pages plus trace
// records held by terminal jobs.
func (d *Daemon) PayloadBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.payloadSize
}
