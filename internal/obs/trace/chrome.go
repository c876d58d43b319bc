package trace

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Chrome-trace export: each span becomes one complete ("ph":"X") event
// in the Chrome/Perfetto trace-event JSON array format, one event per
// line so the file also greps like JSONL. Timestamps are microseconds
// on the collector timeline; traces map onto Perfetto tracks via tid
// (full 64-bit ids travel as strings in args, since JSON numbers lose
// precision past 2^53).

func appendChromeEvent(b []byte, r SpanRecord) []byte {
	cat := "wall"
	if r.BackendClock {
		cat = "backend"
	}
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, r.Name)
	b = fmt.Appendf(b, `,"cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d`,
		cat, float64(r.Start)/1e3, float64(r.End-r.Start)/1e3, r.Trace&0xffffff)
	b = fmt.Appendf(b, `,"args":{"trace":"%d","span":"%d","parent":"%d"`, r.Trace, r.ID, r.Parent)
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = strconv.AppendQuote(b, r.Err)
	}
	return append(b, "}}"...)
}

// ChromeExporter streams spans to w as they are recorded (the
// apstdvd -trace-out sink). Close finishes the JSON array; a file cut
// short by a crash still loads in Chrome/Perfetto, which tolerate a
// missing terminator.
type ChromeExporter struct {
	mu  sync.Mutex
	w   io.Writer
	n   int
	err error
}

// NewChromeExporter returns an exporter streaming to w.
func NewChromeExporter(w io.Writer) *ChromeExporter {
	return &ChromeExporter{w: w}
}

// ExportSpan implements Exporter. Write errors are sticky and
// reported by Close.
func (e *ChromeExporter) ExportSpan(r SpanRecord) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	var b []byte
	if e.n == 0 {
		b = append(b, "[\n"...)
	} else {
		b = append(b, ",\n"...)
	}
	b = appendChromeEvent(b, r)
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return
	}
	e.n++
}

// Close terminates the JSON array and returns the first write error.
func (e *ChromeExporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	if e.n == 0 {
		_, e.err = io.WriteString(e.w, "[\n")
	}
	if e.err == nil {
		_, e.err = io.WriteString(e.w, "\n]\n")
	}
	return e.err
}
