// Package checkpoint persists model weights to disk and restores them —
// LBANN's checkpoint/restart facility, which long LTFB campaigns on shared
// machines rely on. A checkpoint stores the serialized weights of a set of
// networks together with a step counter, so a training session (or a single
// tournament winner) can resume where it stopped.
//
// Format: magic "CKP1" | uint64 step | network-set stream (nn.WriteNetworks).
// Files are written atomically (temp file + rename, WriteAtomic, which the
// serving tier's spec sidecar goes through too) with mode 0644, so a crash
// mid-write never corrupts the previous checkpoint and a server running as
// another user can read the weights as it reads their spec. Save and Load stream the weights
// between the networks and the file through fixed buffers, so neither holds
// a copy of the file in memory however large the model is.
package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/nn"
)

const magic = "CKP1"

// headerLen is the magic plus the step counter.
const headerLen = len(magic) + 8

// ioBuffer sizes the bufio layer between the codec and the file.
const ioBuffer = 64 << 10

// write streams one checkpoint to w.
func write(w io.Writer, step int64, nets []*nn.Network) error {
	bw := bufio.NewWriterSize(w, ioBuffer)
	hdr := binary.LittleEndian.AppendUint64([]byte(magic), uint64(step))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := nn.WriteNetworks(bw, nets); err != nil {
		return err
	}
	return bw.Flush()
}

// Save writes the networks and step counter to path atomically
// (WriteAtomic).
func Save(path string, step int64, nets []*nn.Network) error {
	if err := WriteAtomic(path, func(w io.Writer) error { return write(w, step, nets) }); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteAtomic writes the file at path as fill streams it, with mode 0644
// whatever the umask: fill writes a temporary file in path's directory,
// which is closed and renamed over path, so a reader of path sees the old
// file or the new one and never half of one. On error the temporary file
// is removed and path is left as it was.
func WriteAtomic(path string, fill func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	stage, err := "write", fill(tmp)
	if cerr := tmp.Close(); err == nil {
		stage, err = "close", cerr
	}
	if err == nil {
		stage, err = "chmod", os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		stage, err = "rename", os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%s: %w", stage, err)
	}
	return nil
}

// Fingerprint returns the hex SHA-256 of the file at path — the
// content identity a checkpoint watcher compares across polls. Because
// Save is atomic (temp file + rename), a fingerprint never observes a
// half-written checkpoint: it hashes either the old bytes or the new
// ones.
func Fingerprint(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("checkpoint: fingerprint %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Load restores a checkpoint into nets (which must match the saved
// architecture) and returns the stored step counter.
func Load(path string, nets []*nn.Network) (step int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, ioBuffer)
	var hdr [headerLen]byte
	switch _, err := io.ReadFull(br, hdr[:]); {
	case err == io.EOF, err == io.ErrUnexpectedEOF, err == nil && string(hdr[:len(magic)]) != magic:
		return 0, fmt.Errorf("checkpoint: %s is not a checkpoint file", path)
	case err != nil:
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	step = int64(binary.LittleEndian.Uint64(hdr[len(magic):]))
	if err := nn.ReadNetworks(br, nets); err != nil {
		return 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return step, nil
}
