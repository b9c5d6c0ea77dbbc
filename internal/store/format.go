// Package store is the crash-safe persistence engine behind the corpus and
// its sharded index. It combines two durable artifacts in one data
// directory:
//
//   - Snapshots — versioned, length-prefixed, CRC32C-checksummed binary
//     images of the corpus (graphs with interned labels and CSR row
//     offsets) plus the sharded index's metadata (shard count, per-shard
//     epochs) as of a WAL sequence number. Snapshots are written to a
//     temporary file and atomically renamed into place; the previous
//     snapshot is retained so a corrupted latest image degrades to the
//     last durable state instead of losing everything.
//
//   - A write-ahead log — an append-only file of checksummed batch
//     records (added graphs + removed names) with monotonically
//     increasing sequence numbers and a configurable fsync policy. A
//     batch is durable once Append returns; serving layers acknowledge
//     updates only after that point.
//
// Recovery (Open) = load the newest valid snapshot, truncate any torn or
// corrupt WAL tail at the first invalid record, and hand back the WAL
// suffix (records with seq > snapshot seq) for the caller to replay
// through the existing index-maintenance path (gindex.ApplyBatch).
// Corruption anywhere — a torn tail from a mid-write crash, a flipped bit
// from a bad disk — is detected by checksum and degrades to the last
// durable prefix; it is never replayed as garbage.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/graph"
)

// castagnoli is the CRC32C polynomial table. CRC32C has hardware support
// on amd64/arm64, so per-record checksumming is nearly free next to the
// write itself.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a frame or payload whose checksum, length, or
// structure is invalid. Recovery treats it as "the durable prefix ends
// here", never as data.
var ErrCorrupt = errors.New("store: corrupt record")

// ErrUnsupportedVersion marks a snapshot whose header names a format
// version this build does not read (see DESIGN.md, "Format versions").
// Recovery skips such a snapshot like a corrupt one; when no snapshot is
// readable, the error store.Open returns wraps it.
var ErrUnsupportedVersion = errors.New("store: unsupported snapshot format version")

// frameHeaderSize is the fixed per-frame prefix: u32 payload length +
// u32 CRC32C of the payload, both little-endian.
const frameHeaderSize = 8

// maxFrameSize caps a single frame's payload. It bounds the allocation a
// corrupted length field can demand during recovery; 1 GiB is far beyond
// any legitimate snapshot section or WAL batch.
const maxFrameSize = 1 << 30

// appendFrame appends a length-prefixed, checksummed frame to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads one frame from r. It returns io.EOF exactly when the
// reader is positioned at a clean end (zero bytes remain); a partial
// header or body, a bogus length, or a checksum mismatch return
// ErrCorrupt. The returned payload is freshly allocated.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		// A partial header is a torn write, not a clean end.
		return nil, fmt.Errorf("%w: torn frame header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrameSize {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: torn frame body", ErrCorrupt)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// frameAt validates the frame spanning data[off : off+length] — length
// includes the 8-byte header — and returns its payload, aliasing data (the
// caller treats it as read-only; this is the zero-copy hydration path over
// an mmap'd snapshot). The CRC is checked on every call, so a bit flipped
// under the mapping is detected at touch time, never decoded as data.
func frameAt(data []byte, off, length uint64) ([]byte, error) {
	if length < frameHeaderSize || length > maxFrameSize+frameHeaderSize ||
		off > uint64(len(data)) || length > uint64(len(data))-off {
		return nil, fmt.Errorf("%w: frame bounds [%d,+%d) outside %d-byte snapshot", ErrCorrupt, off, length, len(data))
	}
	b := data[off : off+length]
	if uint64(binary.LittleEndian.Uint32(b[0:4])) != length-frameHeaderSize {
		return nil, fmt.Errorf("%w: frame length field disagrees with frame index", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	payload := b[frameHeaderSize:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// enc is a tiny append-only encoder over a byte slice.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec is the matching sticky-error decoder. After the first failure every
// subsequent read returns zero values; callers check err once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("u8")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return nil
}

// encodeGraphInterned encodes g with node/edge labels replaced by ids from
// intern (the snapshot-wide label table). Edges are stored in insertion
// order so decoding reconstructs the graph exactly — same node ids, same
// edge ids, same adjacency iteration order. A CSR row-start array (the
// degree prefix sum of the sorted-adjacency snapshot) rides along so
// loaders can pre-size adjacency and cross-check structure beyond the
// frame checksum.
func encodeGraphInterned(e *enc, g *graph.Graph, intern func(string) uint32) {
	e.str(g.Name())
	n, m := g.NumNodes(), g.NumEdges()
	e.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		e.uvarint(uint64(intern(g.NodeLabel(i))))
	}
	e.uvarint(uint64(m))
	for _, ed := range g.Edges() {
		e.uvarint(uint64(ed.U))
		e.uvarint(uint64(ed.V))
		e.uvarint(uint64(intern(ed.Label)))
	}
	// CSR rows: row-start offsets of the adjacency (offsets[v+1]-offsets[v]
	// = degree of v). Derived data, but cheap (n+1 uvarints) and lets the
	// loader verify the decoded structure degree-by-degree.
	off := uint64(0)
	e.uvarint(off)
	for i := 0; i < n; i++ {
		off += uint64(g.Degree(i))
		e.uvarint(off)
	}
}

// decodeGraphInterned is the inverse of encodeGraphInterned. labels maps
// interned ids back to strings.
func decodeGraphInterned(d *dec, labels []string) (*graph.Graph, error) {
	name := d.str()
	g := graph.New(name)
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > maxFrameSize {
		return nil, fmt.Errorf("%w: graph %q node count %d", ErrCorrupt, name, n)
	}
	lookup := func(id uint64) (string, error) {
		if id >= uint64(len(labels)) {
			return "", fmt.Errorf("%w: graph %q label id %d out of range [0,%d)", ErrCorrupt, name, id, len(labels))
		}
		return labels[id], nil
	}
	for i := uint64(0); i < n; i++ {
		l, err := lookup(d.uvarint())
		if err != nil {
			return nil, err
		}
		g.AddNode(l)
	}
	m := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if m > maxFrameSize {
		return nil, fmt.Errorf("%w: graph %q edge count %d", ErrCorrupt, name, m)
	}
	for i := uint64(0); i < m; i++ {
		u := d.uvarint()
		v := d.uvarint()
		l, err := lookup(d.uvarint())
		if err != nil {
			return nil, err
		}
		if d.err != nil {
			return nil, d.err
		}
		if u >= n || v >= n {
			return nil, fmt.Errorf("%w: graph %q edge endpoint out of range", ErrCorrupt, name)
		}
		if _, err := g.AddEdge(int(u), int(v), l); err != nil {
			return nil, fmt.Errorf("%w: graph %q: %v", ErrCorrupt, name, err)
		}
	}
	// Validate the CSR row starts against the rebuilt adjacency.
	prev := d.uvarint()
	if prev != 0 {
		return nil, fmt.Errorf("%w: graph %q CSR rows do not start at 0", ErrCorrupt, name)
	}
	for i := uint64(0); i < n; i++ {
		off := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if off-prev != uint64(g.Degree(int(i))) {
			return nil, fmt.Errorf("%w: graph %q CSR row %d degree mismatch", ErrCorrupt, name, i)
		}
		prev = off
	}
	if d.err != nil {
		return nil, d.err
	}
	return g, nil
}

// encodeGraphInline encodes g with labels inline (no shared table) — the
// WAL form, where batches are small and self-contained records beat a
// per-file intern table.
func encodeGraphInline(e *enc, g *graph.Graph) {
	e.str(g.Name())
	n, m := g.NumNodes(), g.NumEdges()
	e.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		e.str(g.NodeLabel(i))
	}
	e.uvarint(uint64(m))
	for _, ed := range g.Edges() {
		e.uvarint(uint64(ed.U))
		e.uvarint(uint64(ed.V))
		e.str(ed.Label)
	}
}

// decodeGraphInline is the inverse of encodeGraphInline.
func decodeGraphInline(d *dec) (*graph.Graph, error) {
	name := d.str()
	g := graph.New(name)
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > maxFrameSize {
		return nil, fmt.Errorf("%w: graph %q node count %d", ErrCorrupt, name, n)
	}
	for i := uint64(0); i < n; i++ {
		g.AddNode(d.str())
	}
	m := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if m > maxFrameSize {
		return nil, fmt.Errorf("%w: graph %q edge count %d", ErrCorrupt, name, m)
	}
	for i := uint64(0); i < m; i++ {
		u := d.uvarint()
		v := d.uvarint()
		l := d.str()
		if d.err != nil {
			return nil, d.err
		}
		if u >= n || v >= n {
			return nil, fmt.Errorf("%w: graph %q edge endpoint out of range", ErrCorrupt, name)
		}
		if _, err := g.AddEdge(int(u), int(v), l); err != nil {
			return nil, fmt.Errorf("%w: graph %q: %v", ErrCorrupt, name, err)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return g, nil
}
