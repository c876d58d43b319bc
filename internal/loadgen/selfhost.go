package loadgen

import (
	"context"
	"fmt"
	"net"
	"time"

	"apstdv/internal/daemon"
)

// BenchSpec returns the builtin benchmark task specification: a
// callback-method task of the given load in work units, needing no
// files on disk. The algorithm is SIMPLE-load (one chunk per unit), so
// the load knob directly sets how much scheduling work each accepted
// job costs the daemon.
func BenchSpec(load int) string {
	return fmt.Sprintf(`<task executable="bench" input="virtual">
 <divisibility input="virtual" method="callback" callback="cb" load="%d" algorithm="simple-%d"/>
</task>`, load, load)
}

// SelfHost starts an in-process daemon on a loopback listener, so the
// benchmark measures the serving path without a separate daemon
// process. The shutdown function drains the daemon and closes the
// listener.
func SelfHost(cfg daemon.Config) (addr string, shutdown func(), err error) {
	d, err := daemon.New(cfg)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go d.ServeFrame(ln)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		d.Shutdown(ctx)
		cancel()
		ln.Close()
	}
	return ln.Addr().String(), shutdown, nil
}
