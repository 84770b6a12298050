package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/tensor"
)

// Reloader keeps one registered model current with the checkpoints on
// disk: the LTFB training loop continuously promotes new tournament
// winners, so a serving process that must restart to pick one up is
// always stale. The reloader polls a spec/checkpoint path (the same
// flexible path cmd/jagserve's -models flag takes), fingerprints the
// spec file and every checkpoint it lists, and when the content
// changes it builds a fresh replica pool, smoke-tests it with a canary
// forward pass per method, and promotes it with Registry.Replace —
// new requests route to the new model while the old server drains its
// in-flight batches and closes. A replacement that fails to load or
// fails the canary is rolled back: the old model keeps serving, the
// failure is recorded in the reload state (surfaced via /healthz), and
// the next content change retries.
//
// Change detection is two-stage: a cheap stat signature (path, size,
// mtime of spec + checkpoints) decides whether to hash at all, and the
// SHA-256 content fingerprint decides whether to reload — so a file
// rewritten with identical bytes (or merely touched) never triggers a
// swap, and an idle poll costs a few stat calls.
type Reloader struct {
	reg  *Registry
	name string
	path string
	cfg  ReloaderConfig

	mu         sync.Mutex
	sig        string // last stat signature seen
	hash       string // content fingerprint of the serving generation
	reloads    int64  // successful swaps performed by this reloader
	rejections int64  // failed attempts: load error or canary rejection
	lastCheck  time.Time
	lastSwap   time.Time
	lastErr    string
}

// ReloaderConfig tunes a Reloader.
type ReloaderConfig struct {
	// Interval is the Run polling period (default 2s).
	Interval time.Duration
	// Replicas and Ensemble shape the rebuilt pool, like the matching
	// cmd/jagserve flags (Replicas is raised to the checkpoint count).
	Replicas int
	Ensemble bool
	// Server configures the rebuilt Server; zero values take the
	// Config defaults.
	Server Config
	// Logf, when set, receives one line per swap and per failed
	// attempt (e.g. log.Printf). nil silences the reloader.
	Logf func(format string, args ...any)
	// Baseline is the SpecFingerprint of the content the currently
	// serving model was built from. Set it when the files may change
	// between building the serving pool and constructing the reloader
	// (compute the fingerprint before loading the checkpoints, as
	// cmd/jagserve -watch does); a checkpoint written in that window
	// is then promoted on the first poll instead of being silently
	// adopted as already-serving. Empty fingerprints the path at
	// construction time.
	Baseline string
}

// ReloadState is a reloader's reportable state, embedded in the
// /healthz reply next to the model's readiness.
type ReloadState struct {
	// Path is the watched spec/checkpoint path.
	Path string `json:"path"`
	// Generation mirrors the registry's swap generation for the name.
	Generation int64 `json:"generation"`
	// Reloads counts successful hot swaps performed by this reloader.
	Reloads int64 `json:"reloads"`
	// Rejections counts failed reload attempts — a checkpoint that
	// would not load or failed its canary pass — each of which left the
	// previous generation serving. Exposed as jag_reload_rejected_total
	// on /metrics, so a training loop writing poison checkpoints pages
	// someone instead of silently never promoting.
	Rejections int64 `json:"rejected_reloads"`
	// Fingerprint is the content hash of the serving generation's spec
	// + checkpoints.
	Fingerprint string `json:"fingerprint,omitempty"`
	// LastCheck is when the watcher last polled the path.
	LastCheck time.Time `json:"last_check,omitzero"`
	// LastSwap is when the model was last hot-swapped.
	LastSwap time.Time `json:"last_swap,omitzero"`
	// LastError is the most recent failed reload attempt (load error
	// or canary rejection). It persists while the rejected content
	// remains on disk — no-change polls do not clear it — and empties
	// once a poll examines clean content or swaps. A non-empty value
	// means an intended update was NOT promoted and the previous
	// generation is still serving.
	LastError string `json:"last_error,omitempty"`
}

// NewReloader attaches a watcher for the named (already registered)
// model to the registry and fingerprints the path's current content as
// the baseline, so the first poll only swaps if the files changed
// after the serving model was built. It does not start polling: call
// Run (or Check, for explicit single polls).
func NewReloader(reg *Registry, name, path string, cfg ReloaderConfig) (*Reloader, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	rl := &Reloader{reg: reg, name: name, path: path, cfg: cfg}
	if err := reg.attachWatcher(name, rl); err != nil {
		return nil, err
	}
	if cfg.Baseline != "" {
		// The caller pinned what is actually serving; the stat
		// signature stays empty so the first poll compares content.
		rl.hash = cfg.Baseline
	} else if sig, hash, _, err := rl.fingerprint(); err == nil {
		// Best-effort: if the path is unreadable now, leave the
		// fingerprint empty and let the first successful poll load it.
		rl.sig, rl.hash = sig, hash
	}
	return rl, nil
}

// State returns a snapshot of the reloader's bookkeeping.
func (rl *Reloader) State() ReloadState {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return ReloadState{
		Path:        rl.path,
		Generation:  rl.reg.Generation(rl.name),
		Reloads:     rl.reloads,
		Rejections:  rl.rejections,
		Fingerprint: rl.hash,
		LastCheck:   rl.lastCheck,
		LastSwap:    rl.lastSwap,
		LastError:   rl.lastErr,
	}
}

// Run polls until ctx is cancelled, logging swaps and failures through
// the configured Logf.
func (rl *Reloader) Run(ctx context.Context) {
	tick := time.NewTicker(rl.cfg.Interval)
	defer tick.Stop()
	// Bad-content failures are latched by the stat signature (no
	// re-attempt until the files change), but a fingerprint/stat error
	// fires on every poll — a static misconfiguration (deleted
	// checkpoint, ambiguous spec dir) must log once, not every
	// interval forever.
	var lastLogged string
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			swapped, err := rl.Check()
			switch {
			case err != nil:
				if msg := err.Error(); msg != lastLogged {
					lastLogged = msg
					rl.logf("model %s: reload rejected, generation %d keeps serving: %v",
						rl.name, rl.reg.Generation(rl.name), err)
				}
			case swapped:
				lastLogged = ""
				rl.logf("model %s: hot-swapped to generation %d from %s",
					rl.name, rl.reg.Generation(rl.name), rl.path)
			default:
				lastLogged = ""
			}
		}
	}
}

func (rl *Reloader) logf(format string, args ...any) {
	if rl.cfg.Logf != nil {
		rl.cfg.Logf(format, args...)
	}
}

// Check runs one poll step: detect change, rebuild, canary, promote.
// It returns whether a swap happened. An error means the old model
// kept serving — unreadable path, failed load, or canary rejection —
// and stays recorded in State while the rejected content remains on
// disk: a later no-change poll must not wipe the evidence, only a
// poll that examined new (or reverted) content clears it.
func (rl *Reloader) Check() (swapped bool, err error) {
	swapped, examined, err := rl.check()
	rl.mu.Lock()
	rl.lastCheck = time.Now()
	switch {
	case err != nil:
		rl.lastErr = err.Error()
		rl.rejections++
	case examined:
		rl.lastErr = ""
	}
	if swapped {
		rl.lastSwap = rl.lastCheck
	}
	rl.mu.Unlock()
	return swapped, err
}

// check reports whether it swapped and whether it got far enough to
// examine content (sig moved and the fingerprint was compared) —
// no-change polls leave the recorded error standing.
func (rl *Reloader) check() (swapped, examined bool, err error) {
	rl.mu.Lock()
	lastSig, lastHash := rl.sig, rl.hash
	rl.mu.Unlock()

	sig, hash, spec, err := rl.fingerprint()
	if err != nil {
		return false, false, err
	}
	if sig == lastSig {
		return false, false, nil // nothing moved on disk
	}
	// The stat signature changed; remember it so an unchanged or bad
	// content state is not re-hashed/re-attempted every poll — the
	// next actual write changes the signature again and retries.
	rl.mu.Lock()
	rl.sig = sig
	rl.mu.Unlock()
	if hash == lastHash {
		return false, true, nil // touched or rewritten with identical bytes
	}

	pool, err := NewPoolFromCheckpoints(spec.Model, spec.Checkpoints, rl.cfg.Replicas, rl.cfg.Ensemble)
	if err != nil {
		return false, true, fmt.Errorf("serve: reload %s: %w", rl.name, err)
	}
	if err := canary(pool); err != nil {
		return false, true, fmt.Errorf("serve: reload %s: %w", rl.name, err)
	}
	srv := NewServer(pool, rl.cfg.Server)
	if old, ok := rl.reg.Get(rl.name); ok {
		// Stale beats zero: an unprobed replacement reporting 0 would
		// drop the whole fleet from weighted routing to P2C.
		srv.SetCapacityQPS(old.CapacityQPS())
	}
	if err := rl.reg.Replace(rl.name, srv); err != nil {
		srv.Close()
		return false, true, fmt.Errorf("serve: reload %s: %w", rl.name, err)
	}
	rl.mu.Lock()
	rl.hash = hash
	rl.reloads++
	rl.mu.Unlock()
	return true, true, nil
}

// fingerprint resolves the watched path and returns the stat signature
// and content hash over the spec file plus every checkpoint it lists,
// along with the loaded spec (so a changed poll does not re-parse it).
func (rl *Reloader) fingerprint() (sig, hash string, spec ModelSpec, err error) {
	specPath, err := FindSpec(rl.path)
	if err != nil {
		return "", "", ModelSpec{}, err
	}
	spec, err = LoadSpec(specPath)
	if err != nil {
		return "", "", ModelSpec{}, err
	}
	if len(spec.Checkpoints) == 0 {
		return "", "", ModelSpec{}, fmt.Errorf("serve: spec %s lists no checkpoints", specPath)
	}
	files := append([]string{specPath}, spec.Checkpoints...)
	sig, err = statSignature(files)
	if err != nil {
		return "", "", ModelSpec{}, err
	}
	hash, err = contentFingerprint(files)
	if err != nil {
		return "", "", ModelSpec{}, err
	}
	return sig, hash, spec, nil
}

// SpecFingerprint returns the content fingerprint of a flexible model
// path (see FindSpec): one hex SHA-256 over the spec file and every
// checkpoint it lists. Two paths with equal fingerprints would build
// bitwise-identical models.
func SpecFingerprint(path string) (string, error) {
	specPath, err := FindSpec(path)
	if err != nil {
		return "", err
	}
	spec, err := LoadSpec(specPath)
	if err != nil {
		return "", err
	}
	return contentFingerprint(append([]string{specPath}, spec.Checkpoints...))
}

// statSignature is the cheap change detector: a string over each
// file's path, size, and mtime. Checkpoint and spec writes are both
// atomic renames, so any content change moves the signature.
func statSignature(paths []string) (string, error) {
	var b strings.Builder
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return "", fmt.Errorf("serve: %w", err)
		}
		fmt.Fprintf(&b, "%s|%d|%d;", p, fi.Size(), fi.ModTime().UnixNano())
	}
	return b.String(), nil
}

// contentFingerprint hashes each file's content fingerprint into one
// digest, bound to its path so renaming files around is a change.
func contentFingerprint(paths []string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		digest, err := checkpoint.Fingerprint(p)
		if err != nil {
			return "", fmt.Errorf("serve: %w", err)
		}
		fmt.Fprintf(h, "%s %s\n", p, digest)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canary smoke-tests a freshly built model before it is promoted: one
// single-row forward pass per method with a mid-cube input. The output
// must have the declared shape and carry only finite values — a
// checkpoint whose weights decode but compute garbage (NaN/Inf) is
// rejected here, before any caller sees it.
func canary(m Model) error {
	dims := m.Dims()
	methods := make([]string, 0, len(dims))
	for method := range dims {
		methods = append(methods, method)
	}
	sort.Strings(methods)
	for _, method := range methods {
		d := dims[method]
		x := tensor.New(1, d.In)
		row := x.Row(0)
		for j := range row {
			row[j] = 0.5
		}
		y, err := m.Run(method, x)
		if err != nil {
			return fmt.Errorf("canary %s: %w", method, err)
		}
		if y == nil || y.Rows != 1 || y.Cols != d.Out {
			rows, cols := 0, 0
			if y != nil {
				rows, cols = y.Rows, y.Cols
			}
			return fmt.Errorf("canary %s: output %dx%d, want 1x%d", method, rows, cols, d.Out)
		}
		for j, v := range y.Row(0) {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("canary %s: non-finite output %v at col %d", method, v, j)
			}
		}
	}
	return nil
}
