package nn

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tensor"
)

// Weight serialization backs the LTFB model exchange and the checkpoint
// files: when two trainers pair up they swap generator weights over the
// communication layer (Figure 6b), and a tournament winner is saved for the
// serving tier, so a network must round-trip through a flat byte stream. The
// format is deliberately simple and versioned:
//
//	magic "NNW1" | uint32 paramCount | for each param:
//	  uint32 rows | uint32 cols | rows*cols little-endian float32
//
// Architecture metadata is not encoded; both sides of an exchange construct
// the same architecture locally (as LBANN does) and only weights travel.
//
// Networks travel in sets (multiserialize.go): an NNW1 blob is one member
// of an NNS1 stream, never a stream of its own. There is one codec and it
// streams. On a little-endian host a param's payload is its floats' own
// memory: WriteNetworks hands it to the writer and ReadNetworks reads into
// it (tensor.WriteFloatsLE, ReadFloatsLE), one copy per float slice and no
// scratch beyond a header's. A big-endian host converts weights through a
// scratch chunk of at most chunkBytes. Either way writing or reading a set
// costs no more than that chunk whatever its size. The byte-slice forms
// (MarshalNetworks, UnmarshalNetworks) are the same codec over a
// bytes.Buffer and a bytes.Reader.

const weightsMagic = "NNW1"

// chunkBytes bounds the scratch floats are converted through on a
// big-endian host.
const chunkBytes = 64 << 10

// scratchBytes sizes the codec's scratch for a stream of size bytes in
// total: the 8 bytes of a header where floats need no conversion, else a
// conversion chunk no larger than the stream.
func scratchBytes(size int) int {
	if tensor.NativeLE {
		return 8
	}
	return max(8, min(size, chunkBytes))
}

// WeightsSize returns the exact byte length of n's NNW1 blob.
func (n *Network) WeightsSize() int {
	size := 4 + 4
	for _, p := range n.Params() {
		size += 8 + 4*len(p.W.Data)
	}
	return size
}

// encoder writes the wire format to w. The first write error sticks and
// turns the remaining calls into no-ops.
type encoder struct {
	w   io.Writer
	buf []byte // header and float conversion scratch
	err error
}

// newEncoder returns an encoder for a stream of size bytes in total.
func newEncoder(w io.Writer, size int) *encoder {
	return &encoder{w: w, buf: make([]byte, scratchBytes(size))}
}

func (e *encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

// header writes a four-byte magic and one count.
func (e *encoder) header(magic string, count int) {
	copy(e.buf, magic)
	binary.LittleEndian.PutUint32(e.buf[4:], uint32(count))
	e.write(e.buf[:8])
}

func (e *encoder) u32(v int) {
	binary.LittleEndian.PutUint32(e.buf, uint32(v))
	e.write(e.buf[:4])
}

func (e *encoder) floats(data []float32) {
	if e.err == nil {
		e.err = tensor.WriteFloatsLE(e.w, data, e.buf)
	}
}

// weights writes one network's NNW1 blob.
func (e *encoder) weights(n *Network) {
	params := n.Params()
	e.header(weightsMagic, len(params))
	for _, p := range params {
		e.u32(p.W.Rows)
		e.u32(p.W.Cols)
		e.floats(p.W.Data)
	}
}

// truncatedError is a decode error caused by the stream ending early, as
// opposed to holding the wrong thing. ReadNetworks uses the distinction to
// tell a short network blob from a short file.
type truncatedError string

func (e truncatedError) Error() string { return string(e) }

// decoder reads the wire format from r.
type decoder struct {
	r   io.Reader
	buf []byte // header and float conversion scratch
}

// newDecoder is newEncoder's counterpart.
func newDecoder(r io.Reader, size int) *decoder {
	return &decoder{r: r, buf: make([]byte, scratchBytes(size))}
}

// read fills p. A stream that ends first is a truncatedError carrying the
// caller's description of what is missing; any other failure is the
// reader's own error.
func (d *decoder) read(p []byte, format string, args ...any) error {
	_, err := io.ReadFull(d.r, p)
	return readErr(err, format, args...)
}

// readErr is read's classification of an io.ReadFull error.
func readErr(err error, format string, args ...any) error {
	switch err {
	case nil:
		return nil
	case io.EOF, io.ErrUnexpectedEOF:
		return truncatedError(fmt.Sprintf(format, args...))
	default:
		return fmt.Errorf("nn: %w", err)
	}
}

func (d *decoder) floats(data []float32, format string, args ...any) error {
	return readErr(tensor.ReadFloatsLE(d.r, data, d.buf), format, args...)
}

// end checks that nothing is left of the stream, which what names in the
// error; the bytes that are left are counted and discarded.
func (d *decoder) end(what string) error {
	n, err := io.Copy(io.Discard, d.r)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	if n > 0 {
		return fmt.Errorf("nn: %s has %d trailing bytes", what, n)
	}
	return nil
}

// weights reads one NNW1 blob — the whole of d's stream — into n.
func (d *decoder) weights(n *Network) error {
	const noMagic = "nn: weight buffer missing %q magic"
	hdr := d.buf[:8]
	if err := d.read(hdr, noMagic, weightsMagic); err != nil {
		return err
	}
	if string(hdr[:4]) != weightsMagic {
		return fmt.Errorf(noMagic, weightsMagic)
	}
	params := n.Params()
	if count := binary.LittleEndian.Uint32(hdr[4:]); int(count) != len(params) {
		return fmt.Errorf("nn: weight buffer has %d params, network has %d", count, len(params))
	}
	for _, p := range params {
		if err := d.read(hdr, "nn: weight buffer truncated at param %q header", p.Name); err != nil {
			return err
		}
		rows := int(binary.LittleEndian.Uint32(hdr))
		cols := int(binary.LittleEndian.Uint32(hdr[4:]))
		if rows != p.W.Rows || cols != p.W.Cols {
			return fmt.Errorf("nn: param %q shape %dx%d in buffer, want %dx%d", p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		if err := d.floats(p.W.Data, "nn: weight buffer truncated in param %q data", p.Name); err != nil {
			return err
		}
	}
	return d.end("weight buffer")
}
