package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/jag"
	"repro/internal/tensor"
)

// wireBatch builds an n-row batch of width cols with a deterministic
// value pattern covering negatives, zeros, and subnormal-ish floats.
func wireBatch(n, cols int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, cols)
		for j := range rows[i] {
			rows[i][j] = float32(i*cols+j%17)/16 - 0.5
		}
	}
	return rows
}

// wireSpecials are float32 bit patterns a codec that converted through
// float64, or canonicalised NaNs, would change: quiet and signalling NaNs
// of both signs with payloads, −0, denormals, ±Inf and the extremes.
var wireSpecials = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc12345, 0x7f800001, 0xff800001, 0x7fbfffff, 0xffffffff,
	0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff,
}

// TestWireRoundTrip checks bitwise fidelity through encode/decode,
// including NaN payloads (the transport must not canonicalize values —
// validation is the serving layer's job): the header is the documented
// 16 bytes and every payload word is the float's bits in little-endian
// order, from EncodeFrame and from writeFrame alike, and decodes back to
// the same bits.
func TestWireRoundTrip(t *testing.T) {
	rows := wireBatch(5, 9)
	rows[2][3] = float32(math.NaN())
	rows[4][0] = float32(math.Inf(-1))
	for k, bits := range wireSpecials {
		rows[k%5][k/5] = math.Float32frombits(bits)
	}
	buf, err := EncodeFrame(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != frameHeader+4*5*9 {
		t.Fatalf("frame length %d, want %d", len(buf), frameHeader+4*5*9)
	}
	var streamed bytes.Buffer
	if err := writeFrame(&streamed, rows, 9); err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{"EncodeFrame": buf, "writeFrame": streamed.Bytes()} {
		if want := "JGT1\x01\x00\x00\x00\x05\x00\x00\x00\x09\x00\x00\x00"; string(frame[:frameHeader]) != want {
			t.Fatalf("%s: header % x, want % x", name, frame[:frameHeader], want)
		}
		for i := range rows {
			for j, v := range rows[i] {
				if w := binary.LittleEndian.Uint32(frame[frameHeader+4*(i*9+j):]); w != math.Float32bits(v) {
					t.Fatalf("%s: row %d col %d on the wire %#08x, want %#08x", name, i, j, w, math.Float32bits(v))
				}
			}
		}
		got, err := DecodeFrame(bytes.NewReader(frame), 9, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("%s: rows %d, want %d", name, len(got), len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(rows[i][j]) {
					t.Fatalf("%s: row %d col %d: %#08x != %#08x", name, i, j, math.Float32bits(got[i][j]), math.Float32bits(rows[i][j]))
				}
			}
		}
	}

	// Zero-row frames round-trip too (the handler rejects them later as
	// "no inputs", but the codec itself is total).
	buf, err = EncodeFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeFrame(bytes.NewReader(buf), 0, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %v rows, err %v", len(got), err)
	}
}

// TestWireByteOrderPathsAgree runs the codec both ways this build has: the
// one-copy path of a little-endian host and the per-float conversion of a
// big-endian one, which writes and reads little-endian words on any host.
// Frames, streamed replies and decodes agree byte and bit for bit, for rows
// longer than a wireChunk and a reader that returns short reads.
func TestWireByteOrderPathsAgree(t *testing.T) {
	rows := wireBatch(3, wireChunk/4+7)
	for k, bits := range wireSpecials {
		rows[1][wireChunk/4-9+k] = math.Float32frombits(bits)
	}
	run := func() (enc, streamed []byte, dec [][]float32) {
		enc, err := EncodeFrame(rows)
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := writeFrame(&w, rows, len(rows[0])); err != nil {
			t.Fatal(err)
		}
		if dec, err = DecodeFrame(iotest.HalfReader(bytes.NewReader(enc)), 0, 0); err != nil {
			t.Fatal(err)
		}
		return enc, w.Bytes(), dec
	}
	enc, streamed, dec := run()
	tensor.NativeLE = !tensor.NativeLE
	defer func() { tensor.NativeLE = !tensor.NativeLE }()
	enc2, streamed2, dec2 := run()
	if !bytes.Equal(enc, enc2) || !bytes.Equal(streamed, streamed2) || !bytes.Equal(enc, streamed) {
		t.Fatal("the two byte-order paths encode different frames")
	}
	for i := range rows {
		for j, v := range rows[i] {
			if math.Float32bits(dec[i][j]) != math.Float32bits(v) || math.Float32bits(dec2[i][j]) != math.Float32bits(v) {
				t.Fatalf("row %d col %d: decoded %#08x and %#08x, want %#08x", i, j,
					math.Float32bits(dec[i][j]), math.Float32bits(dec2[i][j]), math.Float32bits(v))
			}
		}
	}
}

// TestWireEncodeRagged rejects batches whose rows disagree on width.
func TestWireEncodeRagged(t *testing.T) {
	if _, err := EncodeFrame([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch encoded")
	}
}

// TestWireDecodeMalformed covers every validation branch: each corrupt
// frame must produce an error, never a panic or a bogus matrix.
func TestWireDecodeMalformed(t *testing.T) {
	good, err := EncodeFrame(wireBatch(3, 4))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(b []byte) []byte, wantSub string) {
		t.Helper()
		b := mutate(append([]byte(nil), good...))
		_, err := DecodeFrame(bytes.NewReader(b), 0, 0)
		if err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q lacks %q", name, err, wantSub)
		}
	}

	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic")
	corrupt("bad version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:], 99)
		return b
	}, "version")
	corrupt("truncated header", func(b []byte) []byte { return b[:7] }, "header")
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, "truncated")
	corrupt("row/col overflow", func(b []byte) []byte {
		// 2^32-1 rows x 2^32-1 cols: the uint32 product would wrap to 1,
		// but the uint64 size check must refuse before allocating.
		binary.LittleEndian.PutUint32(b[8:], math.MaxUint32)
		binary.LittleEndian.PutUint32(b[12:], math.MaxUint32)
		return b
	}, "too large")

	// Shape limits enforced against the caller's expectation.
	if _, err := DecodeFrame(bytes.NewReader(good), 5, 0); err == nil {
		t.Fatal("wrong column count accepted")
	}
	if _, err := DecodeFrame(bytes.NewReader(good), 0, 2); err == nil {
		t.Fatal("row limit not enforced")
	}
}

// allocatedBy returns the heap bytes f allocated (garbage included).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeFrameAllocationFollowsBytesReceived measures the decoder's
// two allocation promises. A frame several times the first block's size
// decodes bit for bit from a reader that trickles, on both byte-order paths,
// whether its rows fill several blocks or one row outgrows its block, for
// well under the old cost of a grown byte payload plus a float copy (about
// four payloads); and a 256 MiB claim backed by a kilobyte costs about the
// first block, not the claim.
func TestDecodeFrameAllocationFollowsBytesReceived(t *testing.T) {
	defer func(native bool) { tensor.NativeLE = native }(tensor.NativeLE)
	for _, shape := range [][2]int{{600, 1000}, {1, 600000}} { // 2.4 MB of payload each
		in := wireBatch(shape[0], shape[1])
		in[0][3] = float32(math.NaN())
		buf, err := EncodeFrame(in)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			var out [][]float32
			cost := allocatedBy(func() {
				out, err = DecodeFrame(iotest.HalfReader(bytes.NewReader(buf)), shape[1], shape[0])
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(in) {
				t.Fatalf("%v: decoded %d rows, want %d", shape, len(out), len(in))
			}
			for i := range in {
				for j := range in[i] {
					if math.Float32bits(out[i][j]) != math.Float32bits(in[i][j]) {
						t.Fatalf("%v NativeLE=%v: row %d col %d: %v, want %v", shape, tensor.NativeLE, i, j, out[i][j], in[i][j])
					}
				}
			}
			if limit := uint64(3 * len(buf)); cost > limit {
				t.Fatalf("%v NativeLE=%v: decoding a %d-byte frame allocated %d bytes, want under %d", shape, tensor.NativeLE, len(buf), cost, limit)
			}
			tensor.NativeLE = !tensor.NativeLE
		}
	}

	hdr := make([]byte, frameHeader, frameHeader+1024)
	putFrameHeader(hdr, 1<<13, 1<<13) // 64 Mi elements
	short := append(hdr, make([]byte, 1024)...)
	var err error
	cost := allocatedBy(func() { _, err = DecodeFrame(bytes.NewReader(short), 0, 0) })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated 256 MiB claim: %v", err)
	}
	if cost > 2<<20 {
		t.Fatalf("a 256 MiB claim over 1 KiB of payload allocated %d bytes", cost)
	}
}

// TestWriteFrameMatchesEncodeFrame: the streamed reply is the frame
// EncodeFrame builds, byte for byte, whether a row fits the scratch
// chunk or spans several, and a writer's failure is returned.
func TestWriteFrameMatchesEncodeFrame(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {3, jag.InputDim}, {5, 3}, {2, wireChunk/4 + 7}, {3, 3 * wireChunk / 4}} {
		rows := wireBatch(shape[0], shape[1])
		want, err := EncodeFrame(rows)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := frameCols(rows)
		if err != nil || cols != shape[1]*min(shape[0], 1) {
			t.Fatalf("frameCols(%v) = %d, %v", shape, cols, err)
		}
		var got bytes.Buffer
		if err := writeFrame(&got, rows, cols); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) || got.Len() != frameSize(len(rows), cols) {
			t.Fatalf("%v: streamed frame of %d bytes differs from EncodeFrame's %d", shape, got.Len(), len(want))
		}
	}
	if _, err := frameCols([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows passed frameCols")
	}
	rows := wireBatch(4, wireChunk/2)
	for _, room := range []int{0, frameHeader, frameHeader + wireChunk + 5} {
		if err := writeFrame(&shortWriter{room: room}, rows, wireChunk/2); err == nil {
			t.Fatalf("writeFrame to a writer with room for %d bytes succeeded", room)
		}
	}
}

// shortWriter accepts room bytes, then fails.
type shortWriter struct{ room int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		return 0, errors.New("peer went away")
	}
	w.room -= len(p)
	return len(p), nil
}

// benchWireBatch is a Default64-geometry prediction batch: 16 rows of
// the full output bundle (15 scalars + 3 views x 4 channels at 64x64),
// the response payload whose JSON cost motivated the binary transport.
func benchWireBatch() [][]float32 {
	cols := jag.Default64.OutputDim()
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float32, 16)
	for i := range rows {
		rows[i] = make([]float32, cols)
		for j := range rows[i] {
			rows[i][j] = rng.Float32()
		}
	}
	return rows
}

// BenchmarkWireBinaryVsJSON/binary and /json encode and decode the same
// Default64-geometry batch through each transport; the ns/op ratio is
// the wire-format speedup (bytes/op reports the encoded payload size).
func BenchmarkWireBinaryVsJSON(b *testing.B) {
	rows := benchWireBatch()

	b.Run("binary", func(b *testing.B) {
		buf, err := EncodeFrame(rows)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(buf)), "payload_bytes")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc, err := EncodeFrame(rows)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeFrame(bytes.NewReader(enc), 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		buf, err := json.Marshal(rows)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(buf)), "payload_bytes")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc, err := json.Marshal(rows)
			if err != nil {
				b.Fatal(err)
			}
			var out [][]float32
			if err := json.Unmarshal(enc, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameCodec is the JGT1 layer of sweep_paper's reply: 16 rows of
// the Default64 output bundle, written as the handler streams a reply
// (writeFrame into a buffer that keeps its capacity between passes) and
// read as the client decodes one (DecodeFrame). ns/row is the number to
// compare.
func BenchmarkFrameCodec(b *testing.B) {
	rows := benchWireBatch()
	frame, err := EncodeFrame(rows)
	if err != nil {
		b.Fatal(err)
	}
	shape := strconv.Itoa(len(rows)) + "x" + strconv.Itoa(len(rows[0]))
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
	}
	b.Run("encode/"+shape, func(b *testing.B) {
		var buf bytes.Buffer
		buf.Grow(len(frame))
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := writeFrame(&buf, rows, len(rows[0])); err != nil {
				b.Fatal(err)
			}
		}
		perRow(b)
	})
	b.Run("decode/"+shape, func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeFrame(bytes.NewReader(frame), 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		perRow(b)
	})
}
