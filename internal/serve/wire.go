package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary tensor transport. At the paper's Default64 geometry one output
// bundle is ~49k float32s; as a JSON array that is several bytes of
// ASCII per value plus commas, parsed float by float. The frame below
// ships the same matrix as raw little-endian float32 with a 16-byte
// header — the content-negotiated alternative transport of the v1 HTTP
// API (Content-Type/Accept: ContentTypeTensor).
//
// Frame layout (all integers little-endian uint32):
//
//	offset  0: magic "JGT1" (4 bytes)
//	offset  4: version (currently 1)
//	offset  8: rows
//	offset 12: cols
//	offset 16: rows*cols float32 payload, row-major
//
// A frame carries one rectangular matrix: a request frame is one input
// row per prediction, a response frame one output row per input, in
// request order. Responses are only framed when every row succeeded;
// a batch with row errors falls back to the JSON body so the aligned
// per-row error semantics survive the transport switch.
const (
	// ContentTypeTensor is the media type of the binary tensor frame.
	ContentTypeTensor = "application/x-jag-tensor"

	frameMagic   = "JGT1"
	frameVersion = 1
	frameHeader  = 16

	// MaxFrameElems caps rows*cols of a decoded frame (256 MiB of
	// payload): DecodeFrame allocates the payload up front, so the
	// header's claimed size must be bounded before it is believed.
	MaxFrameElems = 1 << 26
)

// EncodeFrame renders a rectangular batch as one binary tensor frame.
// All rows must share one width; a zero-row batch encodes as an empty
// frame.
func EncodeFrame(rows [][]float32) ([]byte, error) {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("serve: ragged frame: row %d has %d cols, want %d", i, len(r), cols)
		}
	}
	if uint64(len(rows))*uint64(cols) > MaxFrameElems {
		return nil, fmt.Errorf("serve: frame too large: %d x %d elements (max %d)", len(rows), cols, MaxFrameElems)
	}
	buf := make([]byte, frameHeader+4*len(rows)*cols)
	copy(buf, frameMagic)
	binary.LittleEndian.PutUint32(buf[4:], frameVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(rows)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(cols))
	off := frameHeader
	for _, r := range rows {
		for _, v := range r {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return buf, nil
}

// DecodeFrame reads one binary tensor frame. Every declared size is
// validated before it is believed: bad magic, an unknown version, a
// rows*cols product over MaxFrameElems (which also catches uint32
// multiplication overflow, since the product is computed in uint64),
// zero-width rows, more than maxRows rows (0 = no limit), a column
// count different from wantCols (0 = any), and a payload shorter than
// the header claims are all errors, never panics. Allocation is
// bounded by bytes actually received, not by the header's claim. Rows
// are views of one backing slice.
func DecodeFrame(r io.Reader, wantCols, maxRows int) ([][]float32, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("serve: short frame header: %w", err)
	}
	if string(hdr[:4]) != frameMagic {
		return nil, fmt.Errorf("serve: bad frame magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != frameVersion {
		return nil, fmt.Errorf("serve: unsupported frame version %d (want %d)", v, frameVersion)
	}
	rows := binary.LittleEndian.Uint32(hdr[8:])
	cols := binary.LittleEndian.Uint32(hdr[12:])
	if elems := uint64(rows) * uint64(cols); elems > MaxFrameElems {
		return nil, fmt.Errorf("serve: frame too large: %d x %d elements (max %d)", rows, cols, MaxFrameElems)
	}
	if cols == 0 && rows > 0 {
		// Zero-width rows carry no payload to bound the row count, so
		// the header alone could demand billions of row slices.
		return nil, fmt.Errorf("serve: frame has %d zero-width rows", rows)
	}
	if maxRows > 0 && rows > uint32(maxRows) {
		return nil, fmt.Errorf("serve: frame has %d rows (max %d)", rows, maxRows)
	}
	if wantCols > 0 && cols != uint32(wantCols) {
		return nil, fmt.Errorf("serve: frame has %d cols, want %d", cols, wantCols)
	}
	// Read the payload in bounded chunks instead of allocating the
	// header's full claim up front: a 16-byte frame declaring
	// MaxFrameElems would otherwise demand 256 MiB before the first
	// payload byte is checked. Growth tracks bytes that actually
	// arrived, so a truncated frame costs at most ~2x what was sent.
	const decodeChunk = 1 << 20
	need := 4 * int(rows) * int(cols)
	payload := make([]byte, 0, min(need, decodeChunk))
	for len(payload) < need {
		start := len(payload)
		n := min(need-start, decodeChunk)
		payload = slices.Grow(payload, n)[:start+n]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, fmt.Errorf("serve: truncated frame payload: %w", err)
		}
	}
	flat := make([]float32, int(rows)*int(cols))
	for i := range flat {
		flat[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	out := make([][]float32, rows)
	for i := range out {
		out[i] = flat[i*int(cols) : (i+1)*int(cols)]
	}
	return out, nil
}
