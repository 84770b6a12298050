package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A network set is several networks in one stream — the LTFB exchange
// payload (Figure 6b ships the generator-side networks together) and the
// body of a checkpoint file:
//
//	magic "NNS1" | uint32 netCount | netCount × (uint32 len | weights blob)

const setMagic = "NNS1"

// NetworksSize returns the exact byte length WriteNetworks will produce.
func NetworksSize(nets []*Network) int {
	size := 4 + 4
	for _, n := range nets {
		size += 4 + n.WeightsSize()
	}
	return size
}

// WriteNetworks streams a set of networks to w, each as its NNW1 blob.
func WriteNetworks(w io.Writer, nets []*Network) error {
	e := newEncoder(w, NetworksSize(nets))
	e.header(setMagic, len(nets))
	for _, n := range nets {
		e.u32(n.WeightsSize())
		e.weights(n)
	}
	return e.err
}

// MarshalNetworks serializes a set of networks into one fresh buffer.
func MarshalNetworks(nets []*Network) []byte {
	var buf bytes.Buffer
	buf.Grow(NetworksSize(nets))
	_ = WriteNetworks(&buf, nets) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// ReadNetworks loads a WriteNetworks stream into nets, which must match in
// count and per-network architecture; the stream must end where the set
// does. On error the networks read so far stay modified.
func ReadNetworks(r io.Reader, nets []*Network) error {
	d := newDecoder(r, NetworksSize(nets))
	const noMagic = "nn: network-set buffer missing magic"
	hdr := d.buf[:8]
	if err := d.read(hdr, noMagic); err != nil {
		return err
	}
	if string(hdr[:4]) != setMagic {
		return errors.New(noMagic)
	}
	if count := int(binary.LittleEndian.Uint32(hdr[4:])); count != len(nets) {
		return fmt.Errorf("nn: buffer holds %d networks, want %d", count, len(nets))
	}
	for i, n := range nets {
		if err := d.read(hdr[:4], "nn: network-set buffer truncated at net %d", i); err != nil {
			return err
		}
		// The blob is a stream of its own that ends at its declared
		// length, which is how the weights decoder finds a blob that is
		// longer or shorter than its network.
		blob := &io.LimitedReader{R: d.r, N: int64(binary.LittleEndian.Uint32(hdr))}
		bd := decoder{r: blob, buf: d.buf}
		err := bd.weights(n)
		var short truncatedError
		if blob.N > 0 && (err == nil || errors.As(err, &short)) {
			// The set's stream ended, not the blob: short of the network's
			// weights, or past them but before the declared length.
			return truncatedError(fmt.Sprintf("nn: network-set buffer truncated in net %d", i))
		}
		if err != nil {
			return fmt.Errorf("nn: net %d (%s): %w", i, n.Name, err)
		}
	}
	return d.end("network-set buffer")
}

// UnmarshalNetworks is ReadNetworks over a MarshalNetworks buffer.
func UnmarshalNetworks(nets []*Network, buf []byte) error {
	return ReadNetworks(bytes.NewReader(buf), nets)
}
