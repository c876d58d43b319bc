package daemon

import (
	"apstdv/internal/obs"
	"apstdv/internal/transport"
)

// The hand-unrolled Event codec the field-list codec replaced, kept
// verbatim as the reference TestEventCodecMatchesReference holds the
// new one to, byte for byte.

func refAppendEvent(b []byte, ev *obs.Event) []byte {
	var bits uint64
	if ev.Seq != 0 {
		bits |= 1 << 0
	}
	if ev.T != 0 {
		bits |= 1 << 1
	}
	if ev.Type != "" {
		bits |= 1 << 2
	}
	if ev.Alg != "" {
		bits |= 1 << 3
	}
	if ev.Run != 0 {
		bits |= 1 << 4
	}
	if ev.Class != "" {
		bits |= 1 << 5
	}
	if ev.Worker != 0 {
		bits |= 1 << 6
	}
	if ev.Chunk != 0 {
		bits |= 1 << 7
	}
	if ev.Size != 0 {
		bits |= 1 << 8
	}
	if ev.Bytes != 0 {
		bits |= 1 << 9
	}
	if ev.Probe {
		bits |= 1 << 10
	}
	if ev.Attempt != 0 {
		bits |= 1 << 11
	}
	if ev.SendStart != 0 {
		bits |= 1 << 12
	}
	if ev.SendEnd != 0 {
		bits |= 1 << 13
	}
	if ev.CompStart != 0 {
		bits |= 1 << 14
	}
	if ev.CompEnd != 0 {
		bits |= 1 << 15
	}
	if ev.OutputEnd != 0 {
		bits |= 1 << 16
	}
	if ev.CommLatency != 0 {
		bits |= 1 << 17
	}
	if ev.CompLatency != 0 {
		bits |= 1 << 18
	}
	if ev.TransferDur != 0 {
		bits |= 1 << 19
	}
	if ev.ComputeDur != 0 {
		bits |= 1 << 20
	}
	if ev.Dur != 0 {
		bits |= 1 << 21
	}
	if ev.Workers != 0 {
		bits |= 1 << 22
	}
	if ev.TotalLoad != 0 {
		bits |= 1 << 23
	}
	if ev.Chunks != 0 {
		bits |= 1 << 24
	}
	if ev.Makespan != 0 {
		bits |= 1 << 25
	}
	if ev.Err != "" {
		bits |= 1 << 26
	}
	if ev.Gamma != 0 {
		bits |= 1 << 27
	}
	if ev.Want != 0 {
		bits |= 1 << 28
	}
	if ev.Remaining != 0 {
		bits |= 1 << 29
	}
	if ev.Switched {
		bits |= 1 << 30
	}
	if ev.Src != 0 {
		bits |= 1 << 31
	}
	if ev.Link != "" {
		bits |= 1 << 32
	}
	b = transport.AppendUvarint(b, bits)
	if bits&(1<<0) != 0 {
		b = transport.AppendVarint(b, ev.Seq)
	}
	if bits&(1<<1) != 0 {
		b = transport.AppendF64(b, ev.T)
	}
	if bits&(1<<2) != 0 {
		b = transport.AppendString(b, string(ev.Type))
	}
	if bits&(1<<3) != 0 {
		b = transport.AppendString(b, ev.Alg)
	}
	if bits&(1<<4) != 0 {
		b = transport.AppendVarint(b, int64(ev.Run))
	}
	if bits&(1<<5) != 0 {
		b = transport.AppendString(b, ev.Class)
	}
	if bits&(1<<6) != 0 {
		b = transport.AppendVarint(b, int64(ev.Worker))
	}
	if bits&(1<<7) != 0 {
		b = transport.AppendVarint(b, int64(ev.Chunk))
	}
	if bits&(1<<8) != 0 {
		b = transport.AppendF64(b, ev.Size)
	}
	if bits&(1<<9) != 0 {
		b = transport.AppendF64(b, ev.Bytes)
	}
	if bits&(1<<11) != 0 {
		b = transport.AppendVarint(b, int64(ev.Attempt))
	}
	if bits&(1<<12) != 0 {
		b = transport.AppendF64(b, ev.SendStart)
	}
	if bits&(1<<13) != 0 {
		b = transport.AppendF64(b, ev.SendEnd)
	}
	if bits&(1<<14) != 0 {
		b = transport.AppendF64(b, ev.CompStart)
	}
	if bits&(1<<15) != 0 {
		b = transport.AppendF64(b, ev.CompEnd)
	}
	if bits&(1<<16) != 0 {
		b = transport.AppendF64(b, ev.OutputEnd)
	}
	if bits&(1<<17) != 0 {
		b = transport.AppendF64(b, ev.CommLatency)
	}
	if bits&(1<<18) != 0 {
		b = transport.AppendF64(b, ev.CompLatency)
	}
	if bits&(1<<19) != 0 {
		b = transport.AppendF64(b, ev.TransferDur)
	}
	if bits&(1<<20) != 0 {
		b = transport.AppendF64(b, ev.ComputeDur)
	}
	if bits&(1<<21) != 0 {
		b = transport.AppendF64(b, ev.Dur)
	}
	if bits&(1<<22) != 0 {
		b = transport.AppendVarint(b, int64(ev.Workers))
	}
	if bits&(1<<23) != 0 {
		b = transport.AppendF64(b, ev.TotalLoad)
	}
	if bits&(1<<24) != 0 {
		b = transport.AppendVarint(b, int64(ev.Chunks))
	}
	if bits&(1<<25) != 0 {
		b = transport.AppendF64(b, ev.Makespan)
	}
	if bits&(1<<26) != 0 {
		b = transport.AppendString(b, ev.Err)
	}
	if bits&(1<<27) != 0 {
		b = transport.AppendF64(b, ev.Gamma)
	}
	if bits&(1<<28) != 0 {
		b = transport.AppendF64(b, ev.Want)
	}
	if bits&(1<<29) != 0 {
		b = transport.AppendF64(b, ev.Remaining)
	}
	if bits&(1<<31) != 0 {
		b = transport.AppendVarint(b, int64(ev.Src))
	}
	if bits&(1<<32) != 0 {
		b = transport.AppendString(b, ev.Link)
	}
	return b
}

func refDecodeEvent(d *transport.Dec, ev *obs.Event) {
	bits := d.Uvarint()
	if bits&(1<<0) != 0 {
		ev.Seq = d.Varint()
	}
	if bits&(1<<1) != 0 {
		ev.T = d.F64()
	}
	if bits&(1<<2) != 0 {
		ev.Type = obs.EventType(d.String())
	}
	if bits&(1<<3) != 0 {
		ev.Alg = d.String()
	}
	if bits&(1<<4) != 0 {
		ev.Run = int(d.Varint())
	}
	if bits&(1<<5) != 0 {
		ev.Class = d.String()
	}
	if bits&(1<<6) != 0 {
		ev.Worker = int(d.Varint())
	}
	if bits&(1<<7) != 0 {
		ev.Chunk = int(d.Varint())
	}
	if bits&(1<<8) != 0 {
		ev.Size = d.F64()
	}
	if bits&(1<<9) != 0 {
		ev.Bytes = d.F64()
	}
	ev.Probe = bits&(1<<10) != 0
	if bits&(1<<11) != 0 {
		ev.Attempt = int(d.Varint())
	}
	if bits&(1<<12) != 0 {
		ev.SendStart = d.F64()
	}
	if bits&(1<<13) != 0 {
		ev.SendEnd = d.F64()
	}
	if bits&(1<<14) != 0 {
		ev.CompStart = d.F64()
	}
	if bits&(1<<15) != 0 {
		ev.CompEnd = d.F64()
	}
	if bits&(1<<16) != 0 {
		ev.OutputEnd = d.F64()
	}
	if bits&(1<<17) != 0 {
		ev.CommLatency = d.F64()
	}
	if bits&(1<<18) != 0 {
		ev.CompLatency = d.F64()
	}
	if bits&(1<<19) != 0 {
		ev.TransferDur = d.F64()
	}
	if bits&(1<<20) != 0 {
		ev.ComputeDur = d.F64()
	}
	if bits&(1<<21) != 0 {
		ev.Dur = d.F64()
	}
	if bits&(1<<22) != 0 {
		ev.Workers = int(d.Varint())
	}
	if bits&(1<<23) != 0 {
		ev.TotalLoad = d.F64()
	}
	if bits&(1<<24) != 0 {
		ev.Chunks = int(d.Varint())
	}
	if bits&(1<<25) != 0 {
		ev.Makespan = d.F64()
	}
	if bits&(1<<26) != 0 {
		ev.Err = d.String()
	}
	if bits&(1<<27) != 0 {
		ev.Gamma = d.F64()
	}
	if bits&(1<<28) != 0 {
		ev.Want = d.F64()
	}
	if bits&(1<<29) != 0 {
		ev.Remaining = d.F64()
	}
	ev.Switched = bits&(1<<30) != 0
	if bits&(1<<31) != 0 {
		ev.Src = int(d.Varint())
	}
	if bits&(1<<32) != 0 {
		ev.Link = d.String()
	}
}
