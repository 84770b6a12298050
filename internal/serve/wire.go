package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
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

	// MaxFrameElems caps rows*cols of a frame (256 MiB of payload):
	// the header's claimed size must be bounded before it is believed.
	MaxFrameElems = 1 << 26
)

// wireChunk is the unit in which the decoder takes payload off the wire,
// and on a big-endian host the scratch both directions convert floats
// through.
const wireChunk = 64 << 10

// nativeLE reports whether this host keeps a float32 in the frame's byte
// order. Then a payload is the floats' own memory: the encoder copies it
// (or hands it to the writer) and the decoder reads into it, with no
// per-float conversion. A big-endian host converts each float.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is the memory of s, 4*len(s) bytes.
func floatBytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// frameCols validates that rows is a rectangle the frame format can
// carry and returns its width.
func frameCols(rows [][]float32) (int, error) {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	for i, r := range rows {
		if len(r) != cols {
			return 0, fmt.Errorf("serve: ragged frame: row %d has %d cols, want %d", i, len(r), cols)
		}
	}
	if uint64(len(rows))*uint64(cols) > MaxFrameElems {
		return 0, fmt.Errorf("serve: frame too large: %d x %d elements (max %d)", len(rows), cols, MaxFrameElems)
	}
	return cols, nil
}

// frameSize is the byte length of a rows x cols frame.
func frameSize(rows, cols int) int { return frameHeader + 4*rows*cols }

func putFrameHeader(dst []byte, rows, cols int) {
	copy(dst, frameMagic)
	binary.LittleEndian.PutUint32(dst[4:], frameVersion)
	binary.LittleEndian.PutUint32(dst[8:], uint32(rows))
	binary.LittleEndian.PutUint32(dst[12:], uint32(cols))
}

// putFloats writes src into dst as little-endian float32s.
func putFloats(dst []byte, src []float32) {
	if nativeLE {
		copy(dst, floatBytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getFloats reads len(dst) little-endian float32s from src.
func getFloats(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// EncodeFrame renders a rectangular batch as one binary tensor frame.
// All rows must share one width; a zero-row batch encodes as an empty
// frame.
func EncodeFrame(rows [][]float32) ([]byte, error) {
	cols, err := frameCols(rows)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameSize(len(rows), cols))
	putFrameHeader(buf, len(rows), cols)
	for i, r := range rows {
		putFloats(buf[frameHeader+4*i*cols:], r)
	}
	return buf, nil
}

// writeFrame streams the frame EncodeFrame would build — rows of width
// cols, already validated by frameCols — to w without a second copy of
// every row: each row's own bytes on a little-endian host, one wireChunk of
// converted scratch at a time on a big-endian one.
func writeFrame(w io.Writer, rows [][]float32, cols int) error {
	var scratch []byte
	if nativeLE {
		scratch = make([]byte, frameHeader)
	} else {
		scratch = make([]byte, max(frameHeader, min(4*cols, wireChunk)))
	}
	putFrameHeader(scratch, len(rows), cols)
	if _, err := w.Write(scratch[:frameHeader]); err != nil {
		return err
	}
	for _, r := range rows {
		for len(r) > 0 {
			n, b := len(r), floatBytes(r)
			if !nativeLE {
				n = min(len(r), len(scratch)/4)
				b = scratch[:4*n]
				putFloats(b, r[:n])
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
			r = r[n:]
		}
	}
	return nil
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
	// Take the payload off the wire a wireChunk at a time, straight into
	// the float slice's bytes (through a chunk of scratch and a
	// conversion on a big-endian host). The slice starts at no more than
	// decodeStart and doubles, never past the header's claim, only once
	// the floats it holds have really arrived: a 16-byte frame declaring
	// MaxFrameElems would otherwise demand 256 MiB before the first
	// payload byte is checked, and a truncated frame costs at most ~2x
	// what was sent.
	const decodeStart = 1 << 18 // floats: 1 MiB
	elems := int(rows) * int(cols)
	var chunk []byte
	if !nativeLE {
		chunk = make([]byte, min(4*elems, wireChunk))
	}
	flat := make([]float32, 0, min(elems, decodeStart))
	for len(flat) < elems {
		n := min(elems-len(flat), wireChunk/4)
		if len(flat)+n > cap(flat) {
			grown := make([]float32, len(flat), min(elems, 2*cap(flat)))
			copy(grown, flat)
			flat = grown
		}
		dst := flat[len(flat) : len(flat)+n]
		buf := floatBytes(dst)
		if !nativeLE {
			buf = chunk[:4*n]
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("serve: truncated frame payload: %w", err)
		}
		if !nativeLE {
			getFloats(dst, buf)
		}
		flat = flat[:len(flat)+n]
	}
	out := make([][]float32, rows)
	for i := range out {
		out[i] = flat[i*int(cols) : (i+1)*int(cols)]
	}
	return out, nil
}
