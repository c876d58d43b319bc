package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/workload"
)

// blockingBackend accepts transfers but never completes them: a run on
// it can only end through cancellation. Run blocks until Stop, like the
// live backend.
type blockingBackend struct {
	workers int
	stopCh  chan struct{}
	started chan struct{} // closed when the first transfer is issued
	once    bool
}

func newBlockingBackend(n int) *blockingBackend {
	return &blockingBackend{
		workers: n,
		stopCh:  make(chan struct{}),
		started: make(chan struct{}),
	}
}

func (b *blockingBackend) Now() float64 { return 0 }
func (b *blockingBackend) Workers() int { return b.workers }
func (b *blockingBackend) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	if !b.once {
		b.once = true
		close(b.started)
	}
}
func (b *blockingBackend) Execute(w int, size float64, probe bool, done func(start, end float64, err error)) {
}
func (b *blockingBackend) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
}
func (b *blockingBackend) Run()  { <-b.stopCh }
func (b *blockingBackend) Stop() { close(b.stopCh) }

func TestExecuteCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	app := &model.Application{Name: "x", TotalLoad: 100, UnitCost: 1, BytesPerUnit: 1}
	_, err := engine.Execute(ctx, engine.Request{
		Backend:   newBlockingBackend(2),
		Algorithm: dls.NewSimple(1),
		App:       app,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecuteCancelMidRunUnblocksAndEmitsTerminalEvent(t *testing.T) {
	app := &model.Application{Name: "x", TotalLoad: 100, UnitCost: 1, BytesPerUnit: 1}
	b := newBlockingBackend(2)
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("operator cancelled the job")
	go func() {
		<-b.started
		cancel(cause)
	}()
	buf := obs.NewBuffer()
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = engine.Execute(ctx, engine.Request{
			Backend:   b,
			Algorithm: dls.NewSimple(1),
			App:       app,
			Config:    engine.Config{Events: buf},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock the run")
	}
	if !errors.Is(runErr, cause) {
		t.Fatalf("err = %v, want the cancellation cause", runErr)
	}
	evs := buf.Events()
	if len(evs) == 0 {
		t.Fatal("no events emitted")
	}
	last := evs[len(evs)-1]
	if last.Type != obs.RunFinished || last.Err == "" {
		t.Errorf("terminal event = %+v, want RunFinished with Err set", last)
	}
}

func TestExecuteDeadlineExceeded(t *testing.T) {
	app := &model.Application{Name: "x", TotalLoad: 100, UnitCost: 1, BytesPerUnit: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := engine.Execute(ctx, engine.Request{
		Backend:   newBlockingBackend(1),
		Algorithm: dls.NewSimple(1),
		App:       app,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestExecuteRequestValidation(t *testing.T) {
	app := &model.Application{Name: "x", TotalLoad: 100, UnitCost: 1, BytesPerUnit: 1}
	cases := []engine.Request{
		{Algorithm: dls.NewSimple(1), App: app},                       // no backend
		{Backend: newBlockingBackend(1), App: app},                    // no algorithm
		{Backend: newBlockingBackend(1), Algorithm: dls.NewSimple(1)}, // no app
	}
	for i, req := range cases {
		if _, err := engine.Execute(context.Background(), req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

// TestStallErrorIsTyped pins errors.Is on the stall sentinel.
func TestStallErrorIsTyped(t *testing.T) {
	platform := workload.Meteor(2)
	app := &model.Application{Name: "x", TotalLoad: 100, UnitCost: 0.1, BytesPerUnit: 10}
	backend, err := grid.New(platform, app, grid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.Execute(context.Background(), engine.Request{
		Backend: backend, Algorithm: &abandonAlg{dls.NewSimple(4)}, App: app, Platform: platform,
	})
	if !errors.Is(err, engine.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// abandonAlg dispatches one chunk, then declines while work remains in
// flight — the run ends with load undispatched.
type abandonAlg struct{ dls.Algorithm }

func (a *abandonAlg) Next(st dls.State) (dls.Decision, bool) {
	if st.Completed > 0 {
		return dls.Decision{}, false
	}
	return a.Algorithm.Next(st)
}
