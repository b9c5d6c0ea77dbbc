package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Snapshot file layout, version 2 — the only version this code reads or
// writes (see DESIGN.md, "Format versions"):
//
//	magic   "VQISNP" + version byte 2 + '\n'        (8 bytes, unframed)
//	HEADER  frame: seq u64, shards u32, epochs shards*u64,
//	               labelCount u32, graphCount u32, sectionCount u32
//	LABELS  frame: labelCount strings (the interned label table,
//	               first-appearance order)
//	GRAPH   frame per graph: name, node label ids, edges in insertion
//	               order (u, v, label id), CSR row-start offsets
//
// followed by the structures that make an O(index) cold boot possible:
//
//	SECTION frame per persisted index section: shard u32, epoch u64,
//	               opaque bytes (gindex's per-shard serialized state)
//	FRAME INDEX frame: per-graph (name, offset u64, length u64) and
//	               per-section (shard u32, epoch u64, offset u64,
//	               length u64) entries; offsets address the frame's
//	               8-byte header from the start of the file, lengths
//	               include it
//	FOOTER  16 raw bytes: frame-index offset u64, CRC32C of those 8
//	               bytes u32, "VQI2"
//
// Every frame is length-prefixed and CRC32C-checksummed (see format.go).
// An eager load reads the file front to back and cross-checks the frame
// index against the byte positions it actually observed; a mapped load
// (Options.Mmap) walks footer → frame index → header/labels/sections and
// never touches graph frames — those are CRC-checked lazily, on first
// hydration of each graph.

const (
	snapMagic   = "VQISNP"
	snapVersion = 2
	snapSuffix  = ".vqisnap"
	snapPrefix  = "snap-"

	snapFooterSize  = 16
	snapFooterMagic = "VQI2"
)

var (
	obsSnapWrites      = obs.Default.Counter("store_snapshot_writes_total")
	obsSnapLoads       = obs.Default.Counter("store_snapshot_loads_total")
	obsSnapCorrupt     = obs.Default.Counter("store_snapshot_corrupt_total")
	obsSnapWriteSec    = obs.Default.Histogram("store_snapshot_write_seconds")
	obsSnapMapped      = obs.Default.Counter("store_snapshot_mapped_total")
	obsSectionsLoaded  = obs.Default.Counter("store_snapshot_sections_loaded_total")
	obsSectionsCorrupt = obs.Default.Counter("store_snapshot_sections_corrupt_total")
)

// SnapshotMeta is the index metadata persisted alongside the corpus: the
// shard count and per-shard epochs of the sharded index at snapshot time.
// Shards == 0 means "no index metadata" (e.g. a seed snapshot written
// before any index existed); epochs are then treated as all-zero.
type SnapshotMeta struct {
	Seq    uint64   // last WAL sequence number folded into this snapshot
	Shards int      // sharded-index shard count (0 = unknown)
	Epochs []uint64 // per-shard epochs, len == Shards
}

func (m SnapshotMeta) epochOf(shard int) uint64 {
	if shard >= 0 && shard < len(m.Epochs) {
		return m.Epochs[shard]
	}
	return 0
}

// IndexSection is one persisted per-shard index section recovered from a
// snapshot: the serialized filter/ANN state of shard Shard as of Epoch.
// The store treats Data as opaque; gindex owns the encoding.
type IndexSection struct {
	Shard int
	Epoch uint64
	Data  []byte
}

// snapName returns the file name of the snapshot covering WAL seq.
func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

// parseSnapName extracts the seq from a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSnapshots returns the snapshot seqs present in dir, descending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		if seq, ok := parseSnapName(ent.Name()); ok && !ent.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// countingBufWriter tracks the absolute file offset of everything written
// through it and latches the first error, so the snapshot writer can
// record frame positions while streaming and check for failure once.
type countingBufWriter struct {
	w   *bufio.Writer
	off uint64
	err error
}

func (cw *countingBufWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(p)
	cw.off += uint64(n)
	cw.err = err
}

// writeFrame streams one checksummed frame: header first, then the payload
// straight from the caller's buffer — no per-frame copy of the payload.
func (cw *countingBufWriter) writeFrame(payload []byte) {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	cw.write(hdr[:])
	cw.write(payload)
}

// frameLoc addresses one frame inside a snapshot file: the offset of its
// 8-byte header from the start of the file, and its total length
// (header + payload).
type frameLoc struct {
	off uint64
	n   uint64
}

// writeSnapshotFile writes the corpus + metadata + index sections to dir
// atomically: all frames go to a temporary file, which is fsynced and
// renamed into place, then the directory entry itself is synced. A crash
// at any point leaves either the complete new snapshot or no new snapshot
// — never a partial one under the final name.
//
// Memory stays O(largest graph), not O(corpus): the first pass over the
// corpus only interns labels, and the second pass encodes each graph into
// one reused buffer that is streamed through the bufio.Writer immediately.
func (st *Store) writeSnapshotFile(c *graph.Corpus, meta SnapshotMeta, sections [][]byte) (err error) {
	t0 := time.Now()
	// Pass 1: intern labels corpus-wide in first-appearance order
	// (deterministic for a given corpus). Hydration errors surface here —
	// a corpus with an unreadable graph cannot be snapshotted.
	var labels []string
	labelID := make(map[string]uint32)
	intern := func(s string) uint32 {
		if id, ok := labelID[s]; ok {
			return id
		}
		id := uint32(len(labels))
		labels = append(labels, s)
		labelID[s] = id
		return id
	}
	for i := 0; i < c.Len(); i++ {
		g, herr := c.Hydrate(i)
		if herr != nil {
			return fmt.Errorf("store: snapshot: graph %q: %w", c.Name(i), herr)
		}
		for v := 0; v < g.NumNodes(); v++ {
			intern(g.NodeLabel(v))
		}
		for _, ed := range g.Edges() {
			intern(ed.Label)
		}
	}

	sectionCount := 0
	for _, data := range sections {
		if len(data) > 0 {
			sectionCount++
		}
	}

	var hdr enc
	hdr.u64(meta.Seq)
	hdr.u32(uint32(meta.Shards))
	for s := 0; s < meta.Shards; s++ {
		hdr.u64(meta.epochOf(s))
	}
	hdr.u32(uint32(len(labels)))
	hdr.u32(uint32(c.Len()))
	hdr.u32(uint32(sectionCount))

	var lab enc
	for _, l := range labels {
		lab.str(l)
	}

	final := filepath.Join(st.dir, snapName(meta.Seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	cw := &countingBufWriter{w: bufio.NewWriterSize(f, 1<<20)}
	cw.write([]byte(snapMagic + string(rune(snapVersion)) + "\n"))
	cw.writeFrame(hdr.b)
	// Fault site: a crash mid-snapshot-write. The injected error abandons
	// the temp file after the header landed — the rename never happens, so
	// recovery still sees only complete snapshots.
	if err = st.inject.Fire("store.snapshot.write"); err != nil {
		cw.w.Flush()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	cw.writeFrame(lab.b)

	// Pass 2: stream graph frames, recording each one's byte position for
	// the frame index. The encode buffer is reused across graphs.
	glocs := make([]frameLoc, 0, c.Len())
	var ge enc
	for i := 0; i < c.Len(); i++ {
		g, herr := c.Hydrate(i)
		if herr != nil {
			err = fmt.Errorf("store: snapshot: graph %q: %w", c.Name(i), herr)
			return err
		}
		ge.b = ge.b[:0]
		encodeGraphInterned(&ge, g, intern)
		glocs = append(glocs, frameLoc{off: cw.off, n: frameHeaderSize + uint64(len(ge.b))})
		cw.writeFrame(ge.b)
	}

	// Index sections, one frame each: shard, epoch, opaque payload.
	type secLoc struct {
		shard int
		loc   frameLoc
	}
	slocs := make([]secLoc, 0, sectionCount)
	var se enc
	for shard, data := range sections {
		if len(data) == 0 {
			continue
		}
		se.b = se.b[:0]
		se.u32(uint32(shard))
		se.u64(meta.epochOf(shard))
		se.b = append(se.b, data...)
		slocs = append(slocs, secLoc{shard: shard, loc: frameLoc{off: cw.off, n: frameHeaderSize + uint64(len(se.b))}})
		cw.writeFrame(se.b)
	}

	// Frame index + footer: the mapped boot path reads these two (plus the
	// header and labels) and nothing else.
	frameIndexOff := cw.off
	var fi enc
	fi.u32(uint32(len(glocs)))
	for i, loc := range glocs {
		fi.str(c.Name(i))
		fi.u64(loc.off)
		fi.u64(loc.n)
	}
	fi.u32(uint32(len(slocs)))
	for _, sl := range slocs {
		fi.u32(uint32(sl.shard))
		fi.u64(meta.epochOf(sl.shard))
		fi.u64(sl.loc.off)
		fi.u64(sl.loc.n)
	}
	cw.writeFrame(fi.b)

	var foot [snapFooterSize]byte
	binary.LittleEndian.PutUint64(foot[0:8], frameIndexOff)
	binary.LittleEndian.PutUint32(foot[8:12], crc32.Checksum(foot[0:8], castagnoli))
	copy(foot[12:16], snapFooterMagic)
	cw.write(foot[:])

	if err = cw.err; err != nil {
		return err
	}
	if err = cw.w.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(st.dir)
	if obs.On() {
		obsSnapWrites.Inc()
		obsSnapWriteSec.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// loadSnapshotFile reads and validates the snapshot covering seq, eagerly
// decoding every graph. Any checksum or structural failure returns
// ErrCorrupt-wrapped errors; any version other than snapVersion returns
// ErrUnsupportedVersion.
func loadSnapshotFile(dir string, seq uint64) (*graph.Corpus, SnapshotMeta, error) {
	var meta SnapshotMeta
	f, err := os.Open(filepath.Join(dir, snapName(seq)))
	if err != nil {
		return nil, meta, err
	}
	defer f.Close()
	r := &countingReader{r: bufio.NewReaderSize(f, 1<<20)}
	magic := make([]byte, 8)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, meta, fmt.Errorf("%w: snapshot magic: %v", ErrCorrupt, err)
	}
	if string(magic[:6]) != snapMagic || magic[7] != '\n' {
		return nil, meta, fmt.Errorf("%w: bad snapshot magic %q", ErrCorrupt, magic)
	}
	if magic[6] != snapVersion {
		return nil, meta, unsupportedVersion(magic[6])
	}
	return loadSnapshotV2(r, seq)
}

// unsupportedVersion reports snapshot format version v as unreadable.
func unsupportedVersion(v byte) error {
	return fmt.Errorf("%w %d (this build reads version %d)", ErrUnsupportedVersion, v, snapVersion)
}

// decodeSnapshotHeader parses the HEADER frame payload.
func decodeSnapshotHeader(hdrb []byte, seq uint64) (meta SnapshotMeta, labelCount, graphCount, sectionCount uint32, err error) {
	hd := dec{b: hdrb}
	meta.Seq = hd.u64()
	shards := hd.u32()
	if shards > 1<<20 {
		return meta, 0, 0, 0, fmt.Errorf("%w: shard count %d", ErrCorrupt, shards)
	}
	meta.Shards = int(shards)
	for s := uint32(0); s < shards; s++ {
		meta.Epochs = append(meta.Epochs, hd.u64())
	}
	labelCount = hd.u32()
	graphCount = hd.u32()
	sectionCount = hd.u32()
	if err := hd.done(); err != nil {
		return meta, 0, 0, 0, fmt.Errorf("snapshot header: %w", err)
	}
	if meta.Seq != seq {
		return meta, 0, 0, 0, fmt.Errorf("%w: snapshot seq %d does not match file name seq %d", ErrCorrupt, meta.Seq, seq)
	}
	return meta, labelCount, graphCount, sectionCount, nil
}

// decodeLabelTable parses the LABELS frame payload.
func decodeLabelTable(labb []byte, labelCount uint32) ([]string, error) {
	ld := dec{b: labb}
	labels := make([]string, labelCount)
	for i := range labels {
		labels[i] = ld.str()
	}
	if err := ld.done(); err != nil {
		return nil, fmt.Errorf("snapshot label table: %w", err)
	}
	return labels, nil
}

// readGraphFrame reads and decodes one graph frame into c.
func readGraphFrame(r io.Reader, c *graph.Corpus, labels []string, i, graphCount uint32) error {
	gb, err := readFrame(r)
	if err != nil {
		return fmt.Errorf("snapshot graph %d/%d: %w", i, graphCount, err)
	}
	g, err := decodeGraphPayload(gb, labels)
	if err != nil {
		return fmt.Errorf("snapshot graph %d/%d: %w", i, graphCount, err)
	}
	if err := c.Add(g); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// decodeGraphPayload decodes one graph frame payload end to end.
func decodeGraphPayload(gb []byte, labels []string) (*graph.Graph, error) {
	gd := dec{b: gb}
	g, err := decodeGraphInterned(&gd, labels)
	if err != nil {
		return nil, err
	}
	if err := gd.done(); err != nil {
		return nil, err
	}
	return g, nil
}

// loadSnapshotV2 eagerly reads a v2 snapshot front to back — graphs are
// decoded and the frame index is cross-checked against the byte positions
// every frame was actually observed at, so a snapshot whose index lies
// about offsets or lengths is rejected here, not discovered at hydration
// time by some later mapped boot. Sections are validated but not returned;
// the eager path rebuilds indexes from the corpus.
func loadSnapshotV2(r *countingReader, seq uint64) (*graph.Corpus, SnapshotMeta, error) {
	var meta SnapshotMeta
	hdrb, err := readFrame(r)
	if err != nil {
		return nil, meta, fmt.Errorf("snapshot header: %w", err)
	}
	meta, labelCount, graphCount, sectionCount, err := decodeSnapshotHeader(hdrb, seq)
	if err != nil {
		return nil, meta, err
	}
	labb, err := readFrame(r)
	if err != nil {
		return nil, meta, fmt.Errorf("snapshot label table: %w", err)
	}
	labels, err := decodeLabelTable(labb, labelCount)
	if err != nil {
		return nil, meta, err
	}
	c := graph.NewCorpus()
	glocs := make([]frameLoc, graphCount)
	for i := uint32(0); i < graphCount; i++ {
		start := uint64(r.n)
		if err := readGraphFrame(r, c, labels, i, graphCount); err != nil {
			return nil, meta, err
		}
		glocs[i] = frameLoc{off: start, n: uint64(r.n) - start}
	}
	type secSeen struct {
		shard uint32
		epoch uint64
		loc   frameLoc
	}
	secs := make([]secSeen, sectionCount)
	for i := uint32(0); i < sectionCount; i++ {
		start := uint64(r.n)
		sb, err := readFrame(r)
		if err != nil {
			return nil, meta, fmt.Errorf("snapshot section %d/%d: %w", i, sectionCount, err)
		}
		sd := dec{b: sb}
		secs[i] = secSeen{shard: sd.u32(), epoch: sd.u64(), loc: frameLoc{off: start, n: uint64(r.n) - start}}
		if sd.err != nil {
			return nil, meta, fmt.Errorf("snapshot section %d/%d: %w", i, sectionCount, sd.err)
		}
	}
	fiOff := uint64(r.n)
	fib, err := readFrame(r)
	if err != nil {
		return nil, meta, fmt.Errorf("snapshot frame index: %w", err)
	}
	fd := dec{b: fib}
	if n := fd.u32(); n != graphCount {
		return nil, meta, fmt.Errorf("%w: frame index lists %d graphs, header says %d", ErrCorrupt, n, graphCount)
	}
	for i := uint32(0); i < graphCount; i++ {
		name := fd.str()
		off := fd.u64()
		n := fd.u64()
		if fd.err != nil {
			return nil, meta, fmt.Errorf("snapshot frame index: %w", fd.err)
		}
		if name != c.Name(int(i)) || off != glocs[i].off || n != glocs[i].n {
			return nil, meta, fmt.Errorf("%w: frame index entry %d (%q @%d+%d) does not match graph frame (%q @%d+%d)",
				ErrCorrupt, i, name, off, n, c.Name(int(i)), glocs[i].off, glocs[i].n)
		}
	}
	if n := fd.u32(); n != sectionCount {
		return nil, meta, fmt.Errorf("%w: frame index lists %d sections, header says %d", ErrCorrupt, n, sectionCount)
	}
	for i := uint32(0); i < sectionCount; i++ {
		shard := fd.u32()
		epoch := fd.u64()
		off := fd.u64()
		n := fd.u64()
		if fd.err != nil {
			return nil, meta, fmt.Errorf("snapshot frame index: %w", fd.err)
		}
		if shard != secs[i].shard || epoch != secs[i].epoch || off != secs[i].loc.off || n != secs[i].loc.n {
			return nil, meta, fmt.Errorf("%w: frame index section entry %d does not match section frame", ErrCorrupt, i)
		}
	}
	if err := fd.done(); err != nil {
		return nil, meta, fmt.Errorf("snapshot frame index: %w", err)
	}
	var foot [snapFooterSize]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		return nil, meta, fmt.Errorf("%w: snapshot footer: %v", ErrCorrupt, err)
	}
	if err := checkFooter(foot, fiOff); err != nil {
		return nil, meta, err
	}
	if _, err := readFrame(r); err != io.EOF {
		return nil, meta, fmt.Errorf("%w: trailing data after snapshot footer", ErrCorrupt)
	}
	if obs.On() {
		obsSnapLoads.Inc()
	}
	return c, meta, nil
}

// checkFooter validates the fixed 16-byte footer against the expected
// frame-index offset (pass ^uint64(0) to accept any and extract it).
func checkFooter(foot [snapFooterSize]byte, wantOff uint64) error {
	if string(foot[12:16]) != snapFooterMagic {
		return fmt.Errorf("%w: bad snapshot footer magic %q", ErrCorrupt, foot[12:16])
	}
	if got := crc32.Checksum(foot[0:8], castagnoli); got != binary.LittleEndian.Uint32(foot[8:12]) {
		return fmt.Errorf("%w: snapshot footer checksum mismatch", ErrCorrupt)
	}
	off := binary.LittleEndian.Uint64(foot[0:8])
	if wantOff != ^uint64(0) && off != wantOff {
		return fmt.Errorf("%w: footer frame-index offset %d, actual %d", ErrCorrupt, off, wantOff)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
