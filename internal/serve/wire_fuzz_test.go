package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeFrame hammers the binary tensor decoder with arbitrary
// bytes. The decoder sits on the public HTTP surface, so the contract
// under fuzzing is absolute: never panic, never trust the header's
// claimed size into an allocation the payload doesn't back, and on
// success return a rectangular matrix whose every float is its payload
// word read as little-endian bits, and whose re-encoding reproduces the
// consumed bytes exactly (bit-level float fidelity, NaN payloads
// included).
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: the interesting shapes by construction.
	valid, err := EncodeFrame([][]float32{{1, 2, 3}, {4.5, -6, 7e9}})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeFrame(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(empty)
	f.Add(valid[:len(valid)-5])                 // truncated payload
	f.Add(valid[:frameHeader-3])                // truncated header
	f.Add(append([]byte("XXXX"), valid[4:]...)) // bad magic

	// Huge rows×cols header with no payload behind it: the product
	// overflows uint32 and the claim must be rejected, not allocated.
	huge := append([]byte(nil), valid[:frameHeader]...)
	binary.LittleEndian.PutUint32(huge[8:], 0xffffffff)
	binary.LittleEndian.PutUint32(huge[12:], 0xffffffff)
	f.Add(huge)

	// Billions of zero-width rows: rows*cols is 0, so only the
	// dedicated guard stands between the header and a giant row-slice
	// allocation.
	zeroCols := append([]byte(nil), valid[:frameHeader]...)
	binary.LittleEndian.PutUint32(zeroCols[8:], 0xffffffff)
	binary.LittleEndian.PutUint32(zeroCols[12:], 0)
	f.Add(zeroCols)

	// Large-but-legal claim (1 MiB of elements) over a truncated body:
	// exercises the chunked payload reader.
	bigClaim := append([]byte(nil), valid[:frameHeader]...)
	binary.LittleEndian.PutUint32(bigClaim[8:], 1<<10)
	binary.LittleEndian.PutUint32(bigClaim[12:], 1<<10)
	f.Add(append(bigClaim, make([]byte, 512)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeFrame(bytes.NewReader(data), 0, 0)
		if err != nil {
			return // rejection is always a legal outcome; panics are not
		}
		cols := 0
		if len(rows) > 0 {
			cols = len(rows[0])
		}
		if uint64(len(rows))*uint64(cols) > MaxFrameElems {
			t.Fatalf("decoder accepted %d x %d elements over the %d cap", len(rows), cols, MaxFrameElems)
		}
		for i, r := range rows {
			if len(r) != cols {
				t.Fatalf("ragged decode: row %d has %d cols, want %d", i, len(r), cols)
			}
			payload := data[frameHeader+4*i*cols:]
			for j, v := range r {
				if want := math.Float32frombits(binary.LittleEndian.Uint32(payload[4*j:])); math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("row %d col %d decoded as %#08x, payload word %#08x", i, j, math.Float32bits(v), math.Float32bits(want))
				}
			}
		}
		enc, err := EncodeFrame(rows)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if len(enc) > len(data) {
			t.Fatalf("decoder produced %d bytes of matrix from %d input bytes", len(enc), len(data))
		}
		if len(rows) == 0 {
			// A zero-row frame legally carries any cols claim; its
			// canonical re-encoding is the 0x0 empty frame, so the
			// headers need not match byte for byte.
			return
		}
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatal("re-encoded frame differs from the consumed bytes")
		}
	})
}

// TestDecodeFrameZeroColsRows pins the zero-width-row guard outside
// the fuzzer: a header claiming billions of empty rows must be
// rejected before any allocation scales with it.
func TestDecodeFrameZeroColsRows(t *testing.T) {
	hdr := make([]byte, frameHeader)
	copy(hdr, frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], frameVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 0xffffffff)
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	if _, err := DecodeFrame(bytes.NewReader(hdr), 0, 0); err == nil {
		t.Fatal("zero-width rows accepted")
	}

	// rows=0 stays legal whatever cols claims: an empty batch.
	binary.LittleEndian.PutUint32(hdr[8:], 0)
	binary.LittleEndian.PutUint32(hdr[12:], 7)
	out, err := DecodeFrame(bytes.NewReader(hdr), 0, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty frame: %v, %d rows", err, len(out))
	}
}

// TestDecodeFrameTruncatedLargeClaim pins the chunked reader: a header
// claiming a large payload over a short body errors cleanly, and the
// decode must not have allocated the full claim up front (verified
// here only behaviourally — the error fires after one chunk).
func TestDecodeFrameTruncatedLargeClaim(t *testing.T) {
	hdr := make([]byte, frameHeader)
	copy(hdr, frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], frameVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<13)
	binary.LittleEndian.PutUint32(hdr[12:], 1<<13) // 64 Mi elements, 256 MiB claim
	body := append(hdr, make([]byte, 1024)...)
	if _, err := DecodeFrame(bytes.NewReader(body), 0, 0); err == nil {
		t.Fatal("truncated 256 MiB claim accepted")
	}
}
