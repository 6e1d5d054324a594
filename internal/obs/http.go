package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// acceptsOpenMetrics reports whether the scraper's Accept header
// negotiates the OpenMetrics exposition format. A substring check is
// enough: we serve exactly two formats, and a scraper that lists
// OpenMetrics at all (Prometheus puts its preferred format first) can
// parse it — exemplars are only legal there.
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(strings.ToLower(accept), "application/openmetrics-text")
}

// NewMux returns an HTTP mux exposing the registry at /metrics
// (classic Prometheus text format, or OpenMetrics with exemplars when
// the Accept header asks for it), a liveness probe at /healthz, and the
// standard pprof handlers under /debug/pprof/.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var err error
		if acceptsOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			err = reg.WriteOpenMetrics(w)
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			err = reg.WritePrometheus(w)
		}
		if err != nil {
			// Headers are gone; nothing to do but note it.
			reg.Counter("chaos_metrics_write_errors_total", nil).Inc()
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running HTTP listener: a metrics endpoint, or any handler
// given to ServeHandler.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// registry's mux in a background goroutine. Close the returned server to
// stop it.
func Serve(addr string, reg *Registry) (*Server, error) { return ServeHandler(addr, NewMux(reg)) }

// ServeHandler binds addr and serves h in a background goroutine. Close
// the returned server to stop it.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the bound address (with the real port when addr used :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
