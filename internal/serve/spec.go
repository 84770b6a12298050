package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/cyclegan"
)

// ModelSpec is the JSON sidecar written next to a checkpoint so a
// server can rebuild the surrogate architecture before loading weights:
// checkpoint files store only the flattened parameters (nn
// serialization is shape-checked, not self-describing), so serving
// needs the cyclegan.Config that produced them.
type ModelSpec struct {
	// Model is the full architecture + geometry of the checkpointed
	// surrogate.
	Model cyclegan.Config `json:"model"`
	// Step is the training step counter at save time (informational).
	Step int64 `json:"step"`
	// Checkpoints lists the weight files this spec describes, in
	// quality order (best first) when written by ltfbtrain. Relative
	// entries are resolved against the spec file's directory, so a
	// checkpoint directory can be moved or mounted elsewhere wholesale.
	Checkpoints []string `json:"checkpoints"`
}

// SpecPath returns the conventional sidecar path for a checkpoint.
func SpecPath(checkpointPath string) string { return checkpointPath + ".spec.json" }

// SaveSpec writes the spec as indented JSON through checkpoint.WriteAtomic,
// like the checkpoint it describes: a checkpoint watcher polling the path
// never reads a half-written spec, and the file is 0644.
func SaveSpec(path string, spec ModelSpec) error {
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: marshal spec: %w", err)
	}
	err = checkpoint.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("serve: spec: %w", err)
	}
	return nil
}

// FindSpec resolves a flexible model path — the value of cmd/jagserve's
// -models name=path flag — to the spec file itself. path may be the
// spec file (*.spec.json), a checkpoint path (whose sidecar is
// returned), or a directory containing exactly one *.spec.json (the
// shape ltfbtrain -checkpoint leaves behind). The checkpoint watcher
// re-resolves through this every poll, so a spec that appears in a
// watched directory later is still found.
func FindSpec(path string) (string, error) {
	info, err := os.Stat(path)
	switch {
	case err != nil:
		return "", fmt.Errorf("serve: %w", err)
	case info.IsDir():
		matches, err := filepath.Glob(filepath.Join(path, "*.spec.json"))
		if err != nil {
			return "", fmt.Errorf("serve: %w", err)
		}
		switch len(matches) {
		case 0:
			return "", fmt.Errorf("serve: no *.spec.json in %s", path)
		case 1:
			return matches[0], nil
		default:
			return "", fmt.Errorf("serve: %s holds %d specs (%s); name one explicitly",
				path, len(matches), strings.Join(matches, ", "))
		}
	case strings.HasSuffix(path, ".spec.json"):
		return path, nil
	default:
		return SpecPath(path), nil
	}
}

// ResolveSpec loads a ModelSpec from a flexible path (see FindSpec).
func ResolveSpec(path string) (ModelSpec, error) {
	specPath, err := FindSpec(path)
	if err != nil {
		return ModelSpec{}, err
	}
	return LoadSpec(specPath)
}

// LoadSpec reads and validates a spec written by SaveSpec.
func LoadSpec(path string) (ModelSpec, error) {
	var spec ModelSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("serve: %w", err)
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return spec, fmt.Errorf("serve: parse spec %s: %w", path, err)
	}
	if err := spec.Model.Validate(); err != nil {
		return spec, fmt.Errorf("serve: spec %s: %w", path, err)
	}
	for i, p := range spec.Checkpoints {
		if !filepath.IsAbs(p) {
			spec.Checkpoints[i] = filepath.Join(filepath.Dir(path), p)
		}
	}
	return spec, nil
}
