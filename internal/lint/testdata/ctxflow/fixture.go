// Package fixture seeds ctxflow violations and their corrected forms:
// functions that receive a context must neither mint fresh root
// contexts nor drop their ctx when calling context-taking APIs.
package fixture

import "context"

// Server stands in for serve.Server.
type Server struct{}

// Call mirrors serve.Server.Call.
func (s *Server) Call(ctx context.Context, x []float32) []float32 { return x }

// Probe is a free function taking a context, for the non-method form.
func Probe(ctx context.Context, x []float32) []float32 { return x }

// --- violations --------------------------------------------------------

func dropsCtx(ctx context.Context, s *Server) {
	s.Call(context.Background(), nil) // want "drops the caller's ctx"
}

func dropsCtxFree(ctx context.Context) {
	Probe(context.TODO(), nil) // want "drops the caller's ctx"
}

func mintsCtx(ctx context.Context) context.Context {
	detached := context.Background() // want "severs the cancellation chain"
	return detached
}

func litWithCtx(s *Server) func(context.Context) {
	return func(ctx context.Context) {
		s.Call(context.Background(), nil) // want "drops the caller's ctx"
	}
}

// --- corrected forms (no diagnostics) ----------------------------------

func passesCtx(ctx context.Context, s *Server) {
	s.Call(ctx, nil)
}

func derivesCtx(ctx context.Context, s *Server) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.Call(ctx, nil)
}

// rootEntryPoint has no ctx parameter: minting the root context is its
// job (main, tests).
func rootEntryPoint(s *Server) {
	s.Call(context.Background(), nil)
}

// suppressed documents a deliberate detach (fire-and-forget audit).
func suppressed(ctx context.Context, s *Server) {
	// lint:ignore ctxflow audit write must outlive the request
	s.Call(context.Background(), nil)
}
