package tensor

import (
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

// Float32s leave the process as little-endian words: the nn weight codec
// (NNW1, and the checkpoint files and LTFB exchanges built on it) and the
// serving tier's tensor frame (JGT1) both lay a []float32 out that way. On a
// little-endian host those bytes are the slice's own memory, so a payload
// moves in one copy between the floats and a writer or a reader; a
// big-endian host converts each float through a caller's scratch.

// NativeLE reports whether this host keeps a float32 in little-endian byte
// order, and so needs no conversion scratch. Tests flip it to drive the
// big-endian conversions on a little-endian host: those write and read
// little-endian words on any host.
var NativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is the memory of s, 4*len(s) bytes.
func floatBytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// PutFloatsLE writes src into dst as little-endian float32s.
func PutFloatsLE(dst []byte, src []float32) {
	if NativeLE {
		copy(dst, floatBytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// WriteFloatsLE writes src to w as little-endian float32s: src's own
// memory in one Write on a little-endian host, else converted through
// scratch (at least 4 bytes) one scratch-full at a time.
func WriteFloatsLE(w io.Writer, src []float32, scratch []byte) error {
	if NativeLE {
		_, err := w.Write(floatBytes(src))
		return err
	}
	for len(src) > 0 {
		n := min(len(src), len(scratch)/4)
		PutFloatsLE(scratch, src[:n])
		if _, err := w.Write(scratch[:4*n]); err != nil {
			return err
		}
		src = src[n:]
	}
	return nil
}

// ReadFloatsLE fills dst with little-endian float32s read from r: straight
// into dst's memory on a little-endian host, else through scratch (at least
// 4 bytes) one scratch-full at a time. Its error is io.ReadFull's; on error
// a prefix of dst holds what arrived.
func ReadFloatsLE(r io.Reader, dst []float32, scratch []byte) error {
	if NativeLE {
		_, err := io.ReadFull(r, floatBytes(dst))
		return err
	}
	for len(dst) > 0 {
		n := min(len(dst), len(scratch)/4)
		if _, err := io.ReadFull(r, scratch[:4*n]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(scratch[4*i:]))
		}
		dst = dst[n:]
	}
	return nil
}
