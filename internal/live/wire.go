package live

import (
	"apstdv/internal/transport"
)

// Frame-transport method ids for the worker protocol. Append-only.
const (
	methodStore   uint16 = 1
	methodCompute uint16 = 2
	methodFetch   uint16 = 3
	methodAbort   uint16 = 4
)

// AppendWire implements transport.Appender.
func (a *StoreArgs) AppendWire(b []byte) []byte { return transport.AppendBytes(b, a.Data) }

// DecodeWire implements transport.Decoder. Data aliases the frame
// buffer and is only valid during the handler — Store reads it and
// returns, never retaining.
func (a *StoreArgs) DecodeWire(d *transport.Dec) { a.Data = d.Bytes() }

// AppendWire implements transport.Appender.
func (r *StoreReply) AppendWire(b []byte) []byte {
	return transport.AppendVarint(b, int64(r.Received))
}

// DecodeWire implements transport.Decoder.
func (r *StoreReply) DecodeWire(d *transport.Dec) { r.Received = int(d.Varint()) }

// AppendWire implements transport.Appender.
func (a *ComputeArgs) AppendWire(b []byte) []byte {
	b = transport.AppendF64(b, a.Units)
	return transport.AppendBool(b, a.Probe)
}

// DecodeWire implements transport.Decoder.
func (a *ComputeArgs) DecodeWire(d *transport.Dec) {
	a.Units = d.F64()
	a.Probe = d.Bool()
}

// AppendWire implements transport.Appender.
func (r *ComputeReply) AppendWire(b []byte) []byte {
	b = transport.AppendF64(b, r.Checksum)
	return transport.AppendF64(b, r.Units)
}

// DecodeWire implements transport.Decoder.
func (r *ComputeReply) DecodeWire(d *transport.Dec) {
	r.Checksum = d.F64()
	r.Units = d.F64()
}

// AppendWire implements transport.Appender.
func (a *FetchArgs) AppendWire(b []byte) []byte { return transport.AppendVarint(b, int64(a.Bytes)) }

// DecodeWire implements transport.Decoder.
func (a *FetchArgs) DecodeWire(d *transport.Dec) { a.Bytes = int(d.Varint()) }

// AppendWire implements transport.Appender.
func (r *FetchReply) AppendWire(b []byte) []byte {
	return transport.AppendBytes(b, r.Data)
}

// DecodeWire implements transport.Decoder. Data is copied: fetched
// output outlives the frame buffer.
func (r *FetchReply) DecodeWire(d *transport.Dec) {
	r.Data = append([]byte(nil), d.Bytes()...)
}

// AppendWire implements transport.Appender.
func (a *AbortArgs) AppendWire(b []byte) []byte { return b }

// DecodeWire implements transport.Decoder.
func (a *AbortArgs) DecodeWire(d *transport.Dec) {}

// AppendWire implements transport.Appender.
func (r *AbortReply) AppendWire(b []byte) []byte { return b }

// DecodeWire implements transport.Decoder.
func (r *AbortReply) DecodeWire(d *transport.Dec) {}

// newWorkerFrameServer registers the worker protocol on a transport
// server.
func newWorkerFrameServer(svc *WorkerService, cfg transport.ServerConfig) *transport.Server {
	s := transport.NewServer(cfg)
	transport.Register[StoreArgs, StoreReply](s, methodStore,
		func(a *StoreArgs, r *StoreReply) error { return svc.Store(*a, r) })
	transport.Register[ComputeArgs, ComputeReply](s, methodCompute,
		func(a *ComputeArgs, r *ComputeReply) error { return svc.Compute(*a, r) })
	transport.Register[FetchArgs, FetchReply](s, methodFetch,
		func(a *FetchArgs, r *FetchReply) error { return svc.Fetch(*a, r) })
	transport.Register[AbortArgs, AbortReply](s, methodAbort,
		func(a *AbortArgs, r *AbortReply) error { return svc.Abort(*a, r) })
	return s
}
