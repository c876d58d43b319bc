package live

import (
	"context"
	"net"
	"strings"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/transport"
)

// serveFrames serves s on a loopback listener until the test ends and
// returns its address.
func serveFrames(t *testing.T, s *transport.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

// serveLiar serves the worker protocol with a worker that stores
// honestly but reports one unit more than it was asked to compute and
// returns one byte less output than was asked for.
func serveLiar(t *testing.T) string {
	s := transport.NewServer(transport.ServerConfig{})
	transport.Register[StoreArgs, StoreReply](s, methodStore,
		func(a *StoreArgs, r *StoreReply) error { r.Received = len(a.Data); return nil })
	transport.Register[ComputeArgs, ComputeReply](s, methodCompute,
		func(a *ComputeArgs, r *ComputeReply) error { r.Units = a.Units + 1; return nil })
	transport.Register[FetchArgs, FetchReply](s, methodFetch,
		func(a *FetchArgs, r *FetchReply) error { r.Data = make([]byte, max(a.Bytes-1, 0)); return nil })
	return serveFrames(t, s)
}

// A reply that does not match the request fails the operation: the
// backend hands it to done, and an engine run on the lying worker fails
// as it would on any other worker fault.
func TestBackendRejectsMismatchedReplies(t *testing.T) {
	addr := serveLiar(t)
	b, err := Dial([]WorkerConn{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	running(t, b)
	for _, tc := range []struct {
		name, want string
		do         func(done func(start, end float64, err error))
	}{
		{"compute", "computed 6 units of 5", func(done func(start, end float64, err error)) {
			b.Execute(0, 5, false, done)
		}},
		{"fetch", "returned 99 of 100 output bytes", func(done func(start, end float64, err error)) {
			b.ReturnOutput(0, 100, done)
		}},
	} {
		got := make(chan error, 1)
		tc.do(func(_, _ float64, err error) { got <- err })
		if err := <-got; err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	run, err := Dial([]WorkerConn{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	app := &model.Application{Name: "lied-to", TotalLoad: 10, BytesPerUnit: 10, UnitCost: 1, MinChunk: 1}
	_, err = engine.Execute(context.Background(), engine.Request{
		Backend: run, Algorithm: dls.NewSimple(1), App: app,
	})
	if err == nil || !strings.Contains(err.Error(), "units of") {
		t.Errorf("engine run on a lying worker: err = %v, want the compute mismatch", err)
	}
}

// A worker that acknowledges a fragment with less than it was sent
// fails the transfer: each Store ack must equal its fragment's length.
func TestBackendRejectsShortStoreAck(t *testing.T) {
	s := transport.NewServer(transport.ServerConfig{})
	transport.Register[StoreArgs, StoreReply](s, methodStore,
		func(a *StoreArgs, r *StoreReply) error { r.Received = len(a.Data) - 1; return nil })
	b, err := Dial([]WorkerConn{{Addr: serveFrames(t, s)}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	running(t, b)
	got := make(chan error, 1)
	b.Transfer(0, 100, func(_, _ float64, err error) { got <- err })
	if err := <-got; err == nil || !strings.Contains(err.Error(), "stored 99 of 100 bytes") {
		t.Errorf("short ack: err = %v, want one naming %q", err, "stored 99 of 100 bytes")
	}
}
