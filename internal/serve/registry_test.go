package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
)

// newNamedServer builds a single-replica server for registry tests.
func newNamedServer(t *testing.T, seed int64) *Server {
	t.Helper()
	pool, err := NewPool([]*cyclegan.Surrogate{cyclegan.New(testModelCfg(), seed)}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, Config{MaxBatch: 4})
	t.Cleanup(s.Close)
	return s
}

// TestRegistryRegister covers naming rules, duplicates, and lookup.
func TestRegistryRegister(t *testing.T) {
	reg := NewRegistry()
	a, b := newNamedServer(t, 1), newNamedServer(t, 2)
	if err := reg.Register("jag", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("jag", b); err == nil {
		t.Fatal("duplicate name accepted")
	}
	for _, bad := range []string{"", "has space", "a/b", "-leading", "q?x"} {
		if err := reg.Register(bad, b); err == nil {
			t.Fatalf("invalid name %q accepted", bad)
		}
	}
	if err := reg.Register("jag.top-2_v1", b); err != nil {
		t.Fatalf("valid punctuated name rejected: %v", err)
	}
	if err := reg.Register("nil", nil); err == nil {
		t.Fatal("nil server accepted")
	}

	if got, ok := reg.Get("jag"); !ok || got != a {
		t.Fatal("Get returned the wrong server")
	}
	if _, ok := reg.Get("missing"); ok {
		t.Fatal("Get found an unregistered model")
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "jag" || names[1] != "jag.top-2_v1" {
		t.Fatalf("Names = %v, want sorted pair", names)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
}

// TestRegistryClose shuts every registered server down.
func TestRegistryClose(t *testing.T) {
	reg := NewRegistry()
	a, b := newNamedServer(t, 1), newNamedServer(t, 2)
	if err := reg.Register("a", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("b", b); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if !a.Closed() || !b.Closed() {
		t.Fatal("Close left a server running")
	}
}

// TestReplaceDrainDeadline pins the bounded-drain contract: with a
// drain deadline set, a Replace whose old server has an Acquire holder
// that never releases returns once the deadline passes, force-closes
// the old server (its remaining Calls fail with ErrClosed), and counts
// the forced close — while a holder that releases promptly never trips
// the counter.
func TestReplaceDrainDeadline(t *testing.T) {
	reg := NewRegistry()
	reg.SetDrainDeadline(60 * time.Millisecond)
	a, b, c := newNamedServer(t, 1), newNamedServer(t, 2), newNamedServer(t, 3)
	if err := reg.Register("jag", a); err != nil {
		t.Fatal(err)
	}

	// A well-behaved holder: acquire, release, then swap. No force.
	if _, release, ok := reg.Acquire("jag"); !ok {
		t.Fatal("Acquire failed")
	} else {
		release()
	}
	if err := reg.Replace("jag", b); err != nil {
		t.Fatal(err)
	}
	if n := reg.ForcedCloses("jag"); n != 0 {
		t.Fatalf("clean drain counted as forced: %d", n)
	}
	if !a.Closed() {
		t.Fatal("clean drain left the old server open")
	}

	// A straggler that never releases: Replace must not block forever.
	held, release, ok := reg.Acquire("jag")
	if !ok || held != b {
		t.Fatal("Acquire returned the wrong server")
	}
	start := time.Now()
	if err := reg.Replace("jag", c); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond {
		t.Fatalf("Replace returned before the drain deadline: %v", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Replace took far longer than the deadline: %v", elapsed)
	}
	if !b.Closed() {
		t.Fatal("deadline passed but the old server was not force-closed")
	}
	if n := reg.ForcedCloses("jag"); n != 1 {
		t.Fatalf("ForcedCloses = %d, want 1", n)
	}
	// The straggler sees ErrClosed, not a hang or a panic.
	if _, err := predict(held, make([]float32, jag.InputDim)); !errors.Is(err, ErrClosed) {
		t.Fatalf("straggler Predict error = %v, want ErrClosed", err)
	}
	release() // late release is harmless
	if n := reg.ForcedCloses("jag"); n != 1 {
		t.Fatalf("late release moved the counter: %d", n)
	}
	if gen := reg.Generation("jag"); gen != 3 {
		t.Fatalf("generation = %d, want 3", gen)
	}
}

// TestReplaceLeakedAcquireForcesClose leaks an Acquire pin outright —
// the release func is discarded, the exact bug jaglint's acquirerelease
// analyzer exists to catch in production code (test files are outside
// its scope, which is what lets this test stage the failure mode).
// The pin can never be released, so Replace must block for the full
// drain deadline, then force-close the displaced server and count it.
func TestReplaceLeakedAcquireForcesClose(t *testing.T) {
	const deadline = 80 * time.Millisecond
	reg := NewRegistry()
	reg.SetDrainDeadline(deadline)
	old, next := newNamedServer(t, 1), newNamedServer(t, 2)
	if err := reg.Register("jag", old); err != nil {
		t.Fatal(err)
	}

	leaked, _, ok := reg.Acquire("jag") // release deliberately leaked
	if !ok || leaked != old {
		t.Fatal("Acquire failed")
	}

	// Replace must not return before the deadline: the leaked pin keeps
	// the drain WaitGroup open, and only the timer can end the wait.
	start := time.Now()
	if err := reg.Replace("jag", next); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < deadline {
		t.Fatalf("Replace returned in %v, before the %v drain deadline — the leaked pin should have blocked it", elapsed, deadline)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Replace took %v, far past the %v deadline", elapsed, deadline)
	}

	if !old.Closed() {
		t.Fatal("leaked pin survived the deadline: old server still open")
	}
	if n := reg.ForcedCloses("jag"); n != 1 {
		t.Fatalf("ForcedCloses = %d, want 1 after a leaked pin", n)
	}
	// The leaked holder's server is dead; calls fail fast.
	if _, err := predict(leaked, make([]float32, jag.InputDim)); !errors.Is(err, ErrClosed) {
		t.Fatalf("leaked holder Predict error = %v, want ErrClosed", err)
	}
	// The replacement is live and unaffected by the forced close.
	if s, ok := reg.Get("jag"); !ok || s != next {
		t.Fatal("replacement server not installed")
	}
	if _, err := predict(next, make([]float32, jag.InputDim)); err != nil {
		t.Fatalf("replacement Predict failed: %v", err)
	}
}
