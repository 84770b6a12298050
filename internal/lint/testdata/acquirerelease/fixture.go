// Package fixture seeds acquirerelease violations and their corrected
// forms. The stub Registry mirrors serve.Registry's pin protocol: a
// release func in the results that must run on every path.
package fixture

// Server stands in for serve.Server.
type Server struct{ name string }

// Registry stands in for serve.Registry.
type Registry struct{}

// Acquire mirrors serve.Registry.Acquire.
func (r *Registry) Acquire(name string) (*Server, func(), bool) {
	return &Server{name}, func() {}, true
}

func use(*Server) {}

// --- violations --------------------------------------------------------

func discarded(reg *Registry) {
	s, _, ok := reg.Acquire("m") // want "release func of reg.Acquire is discarded"
	if !ok {
		return
	}
	use(s)
}

func neverCalled(reg *Registry) {
	s, release, ok := reg.Acquire("m") // want "release func of reg.Acquire is never called"
	if !ok {
		return
	}
	use(s)
	_ = release
}

func earlyReturn(reg *Registry, cond bool) {
	s, release, ok := reg.Acquire("m")
	if !ok {
		return
	}
	if cond {
		return // skips the release below
	}
	use(s)
	release() // want "only called after a possible return"
}

// --- corrected forms (no diagnostics) ----------------------------------

func deferred(reg *Registry) {
	s, release, ok := reg.Acquire("m")
	if !ok {
		return
	}
	defer release()
	use(s)
}

// directNoBranches releases without defer, but no return can intervene.
func directNoBranches(reg *Registry) {
	s, release, ok := reg.Acquire("m")
	if ok {
		use(s)
	}
	release()
}

// handoff moves ownership: the callee is responsible for releasing.
func handoff(reg *Registry, done func(func())) {
	_, release, ok := reg.Acquire("m")
	if !ok {
		return
	}
	done(release)
}

// suppressed documents an intentional leak for the drain-deadline test.
func suppressed(reg *Registry) {
	s, _, _ := reg.Acquire("m") // lint:ignore acquirerelease deliberate leak to exercise ForcedCloses
	use(s)
}
