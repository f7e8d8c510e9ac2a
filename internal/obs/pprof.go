package obs

import (
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
)

// PprofHandler returns a mux serving the standard net/http/pprof endpoints
// under /debug/pprof/. It is mounted on a dedicated listener (the daemons'
// -pprof-addr flag) rather than the API mux, so profiling exposure is an
// explicit operator decision.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServePprof starts the pprof handler on addr in a background goroutine and
// returns the bound address (useful with ":0").
func ServePprof(addr string, log *slog.Logger) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	log.Info("pprof listening", "addr", ln.Addr().String())
	go func() {
		if err := http.Serve(ln, PprofHandler()); err != nil {
			log.Warn("pprof server exited", "err", err)
		}
	}()
	return ln.Addr().String(), nil
}
