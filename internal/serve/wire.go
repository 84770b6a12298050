package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tensor"
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

// wireChunk is the scratch a big-endian host converts floats through, in
// both directions. A little-endian host has none: a payload is the floats'
// own memory, which the encoder copies or hands to the writer and the
// decoder reads into (tensor.PutFloatsLE, WriteFloatsLE, ReadFloatsLE).
const wireChunk = 64 << 10

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

func putFrameHeader(dst []byte, rows, cols int) {
	copy(dst, frameMagic)
	binary.LittleEndian.PutUint32(dst[4:], frameVersion)
	binary.LittleEndian.PutUint32(dst[8:], uint32(rows))
	binary.LittleEndian.PutUint32(dst[12:], uint32(cols))
}

// frameSize is the byte length of a rows x cols frame.
func frameSize(rows, cols int) int { return frameHeader + 4*rows*cols }

// EncodeFrame renders a rectangular batch as one binary tensor frame.
// All rows must share one width; a zero-row batch encodes as an empty
// frame.
func EncodeFrame(rows [][]float32) ([]byte, error) {
	cols, err := frameCols(rows)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, frameSize(len(rows), cols)))
	err = writeFrame(buf, rows, cols)
	return buf.Bytes(), err
}

// writeFrame streams the frame of rows of width cols, already validated by
// frameCols, to w without a second copy of every row: each row's own bytes
// on a little-endian host, one wireChunk of converted scratch at a time on a
// big-endian one.
func writeFrame(w io.Writer, rows [][]float32, cols int) error {
	var scratch []byte
	if tensor.NativeLE {
		scratch = make([]byte, frameHeader)
	} else {
		scratch = make([]byte, max(frameHeader, min(4*cols, wireChunk)))
	}
	putFrameHeader(scratch, len(rows), cols)
	if _, err := w.Write(scratch[:frameHeader]); err != nil {
		return err
	}
	for _, r := range rows {
		if err := tensor.WriteFloatsLE(w, r, scratch); err != nil {
			return err
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
// are views of a few blocks of whole rows.
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
	// The payload arrives into blocks of whole rows, each read straight
	// into its floats' bytes (through a wireChunk of scratch and a
	// conversion on a big-endian host), so each payload byte is written
	// once. A block is allocated only once the floats before it have
	// arrived, and holds no more than decodeStart floats or as many as have
	// arrived, whichever is more: a 16-byte frame declaring MaxFrameElems
	// would otherwise demand 256 MiB before the first payload byte is
	// checked, and a truncated frame costs at most ~2x what was sent. A row
	// wider than its block is the one thing that grows, doubling, as it
	// arrives.
	const decodeStart = 1 << 18 // floats: 1 MiB
	width, elems := int(cols), int(rows)*int(cols)
	var chunk []byte
	if !tensor.NativeLE {
		chunk = make([]byte, min(4*elems, wireChunk))
	}
	var blocks [][]float32
	for got := 0; got < elems; {
		budget := max(decodeStart, got)
		want := max(1, min(elems-got, budget)/width) * width
		block := make([]float32, min(want, budget))
		err := tensor.ReadFloatsLE(r, block, chunk)
		for err == nil && len(block) < want {
			grown := make([]float32, min(want, 2*len(block)))
			copy(grown, block)
			err = tensor.ReadFloatsLE(r, grown[len(block):], chunk)
			block = grown
		}
		if err != nil {
			return nil, fmt.Errorf("serve: truncated frame payload: %w", err)
		}
		blocks = append(blocks, block)
		got += want
	}
	out := make([][]float32, 0, rows)
	for _, block := range blocks {
		for ; len(block) > 0; block = block[width:] {
			out = append(out, block[:width:width])
		}
	}
	return out, nil
}
