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
// changes it builds the next generation through Open — pool, canary
// pass per method, Server, capacity probe — and promotes it with
// Registry.Replace: new requests route to the new model while the old
// server drains its in-flight batches and closes. A replacement that
// fails to load or fails the canary is rolled back: the old model keeps
// serving, the failure is recorded in the reload state (surfaced via
// /healthz), and the next content change retries.
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
	cfg  LoadConfig

	mu         sync.Mutex
	sig        string // last stat signature seen
	hash       string // content fingerprint of the serving generation
	reloads    int64  // successful swaps performed by this reloader
	rejections int64  // failed attempts: load error or canary rejection
	lastCheck  time.Time
	lastSwap   time.Time
	lastErr    string
}

// LoadConfig says how Open builds a served model from a spec path, at
// start-up and for every generation a Reloader promotes.
type LoadConfig struct {
	// Replicas and Ensemble shape the pool, like the matching
	// cmd/jagserve flags (Replicas is raised to the checkpoint count).
	Replicas int
	Ensemble bool
	// Server configures the Server; zero values take the Config
	// defaults.
	Server Config
	// Logf, when set, receives one line per load (pool shape and probed
	// capacity) and, from a Reloader's Run, one per swap and per failed
	// attempt (e.g. log.Printf). nil silences both.
	Logf func(format string, args ...any)
}

// Open turns a flexible spec path (see FindSpec) into a started Server:
// it loads the checkpoints the spec lists into a pool, refuses the pool
// unless one canary pass per method returns finite rows of the declared
// shape, starts the Server, and probes the predict path at the server's
// effective MaxBatch, publishing the fitted row rate as CapacityQPS for
// fleet routing. Every served model goes through here: cmd/jagserve's
// start-up, NewReloader, and each hot swap.
func Open(path string, cfg LoadConfig) (*Server, error) {
	spec, err := ResolveSpec(path)
	if err != nil {
		return nil, err
	}
	pool, err := NewPoolFromCheckpoints(spec.Model, spec.Checkpoints, cfg.Replicas, cfg.Ensemble)
	if err != nil {
		return nil, err
	}
	if err := canary(pool); err != nil {
		return nil, err
	}
	srv := NewServer(pool, cfg.Server)
	// The fit needs two batch sizes; the rate is the one the server runs.
	maxBatch := srv.cfg.MaxBatch
	res, err := CostProbe(pool, MethodPredict, max(maxBatch, 2))
	if err != nil {
		srv.Close()
		return nil, err
	}
	srv.SetCapacityQPS(res.QPS(maxBatch, pool.Replicas()))
	cfg.logf("%s: %d worker(s) over one weight set per checkpoint (%d checkpoint(s)), ensemble=%v, probed capacity %.0f rows/s at B=%d (predict: pass %.3gs + %.3gs/row, timed at B=1 and B=%d)",
		path, pool.Replicas(), len(spec.Checkpoints), pool.Ensemble(), srv.CapacityQPS(), maxBatch, res.PassSec, res.RowSec, res.Batch)
	return srv, nil
}

func (c LoadConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
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

// NewReloader builds the model at path through Open and registers it
// under name with this reloader watching it, in one step. It
// fingerprints the path's content before loading, so a checkpoint
// written while the pool loads is promoted on the first poll rather
// than taken for the serving generation. It does not start polling:
// call Run (or Check, for explicit single polls).
func NewReloader(reg *Registry, name, path string, cfg LoadConfig) (*Reloader, error) {
	rl := &Reloader{reg: reg, name: name, path: path, cfg: cfg}
	var err error
	if rl.sig, rl.hash, err = rl.fingerprint(); err != nil {
		return nil, err
	}
	srv, err := Open(path, cfg)
	if err != nil {
		return nil, err
	}
	if err := reg.register(name, srv, rl); err != nil {
		srv.Close()
		return nil, err
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

// Run polls every period (2s when not positive) until ctx is
// cancelled, logging swaps and failures through the configured Logf.
func (rl *Reloader) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	tick := time.NewTicker(every)
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
					rl.cfg.logf("model %s: reload rejected, generation %d keeps serving: %v",
						rl.name, rl.reg.Generation(rl.name), err)
				}
			case swapped:
				lastLogged = ""
				rl.cfg.logf("model %s: hot-swapped to generation %d from %s",
					rl.name, rl.reg.Generation(rl.name), rl.path)
			default:
				lastLogged = ""
			}
		}
	}
}

// Check runs one poll step: detect change, Open, promote.
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

	sig, hash, err := rl.fingerprint()
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

	srv, err := Open(rl.path, rl.cfg)
	if err != nil {
		return false, true, fmt.Errorf("serve: reload %s: %w", rl.name, err)
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
// and content hash over the spec file plus every checkpoint it lists.
func (rl *Reloader) fingerprint() (sig, hash string, err error) {
	specPath, err := FindSpec(rl.path)
	if err != nil {
		return "", "", err
	}
	spec, err := LoadSpec(specPath)
	if err != nil {
		return "", "", err
	}
	files := append([]string{specPath}, spec.Checkpoints...)
	if sig, err = statSignature(files); err != nil {
		return "", "", err
	}
	if hash, err = contentFingerprint(files); err != nil {
		return "", "", err
	}
	return sig, hash, nil
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

// canary smoke-tests a freshly built model before Open serves it: one
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
