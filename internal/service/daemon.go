package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// NewLogger builds a daemon's structured stderr logger from its
// -log-format (text|json) and -log-level flags.
func NewLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %v", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
	}
}

// Serve is a job daemon's tail: serve handler on ln until SIGINT or
// SIGTERM, then stop accepting HTTP and run drain — which stops admission
// and waits for accepted work — both under drainTimeout. A drain cut
// short by the deadline (stragglers cancelled) still exits cleanly. It
// returns an error only when the listener fails.
func Serve(name string, ln net.Listener, handler http.Handler, drain func(context.Context) error, drainTimeout time.Duration, lg *slog.Logger) error {
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case sig := <-sigc:
		lg.Info(name+": draining on signal", "signal", sig.String(), "timeout", drainTimeout)
	case err := <-errc:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		lg.Warn(name+": http shutdown", "err", err)
	}
	switch err := drain(ctx); {
	case errors.Is(err, context.DeadlineExceeded):
		lg.Warn(name + ": drain deadline hit, stragglers cancelled")
	case err != nil:
		lg.Warn(name+": drain", "err", err)
	}
	lg.Info(name + ": bye")
	return nil
}
