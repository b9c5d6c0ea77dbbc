package store

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// writeV2 seeds dir with corpus c as a version-2 snapshot carrying the
// given sections, returning the open store.
func writeV2(t *testing.T, dir string, c *graph.Corpus, shards int, epochs []uint64, sections ...[]byte) {
	t.Helper()
	st, _ := mustOpen(t, dir, Options{})
	if err := st.WriteSnapshot(c, shards, epochs, sections...); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

func TestSnapshotV2MmapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(12)
	epochs := []uint64{3, 0, 7, 1}
	secs := [][]byte{[]byte("s0"), []byte("s1"), nil, []byte("s3")}
	writeV2(t, dir, c, 4, epochs, secs...)

	_, rec := mustOpen(t, dir, Options{Mmap: true})
	if rec.Corpus == nil {
		t.Fatal("no corpus recovered")
	}
	if rec.Meta.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", rec.Meta.Shards)
	}
	// Boot must not have touched any graph.
	for i := 0; i < rec.Corpus.Len(); i++ {
		if rec.Corpus.Hydrated(i) {
			t.Fatalf("graph %d hydrated at boot", i)
		}
	}
	// Sections: the nil entry is skipped, the rest round-trip with their
	// shard's epoch.
	if len(rec.Sections) != 3 {
		t.Fatalf("recovered %d sections, want 3", len(rec.Sections))
	}
	for _, s := range rec.Sections {
		if string(s.Data) != string(secs[s.Shard]) {
			t.Fatalf("section %d data = %q, want %q", s.Shard, s.Data, secs[s.Shard])
		}
		if s.Epoch != epochs[s.Shard] {
			t.Fatalf("section %d epoch = %d, want %d", s.Shard, s.Epoch, epochs[s.Shard])
		}
	}
	// Hydration returns the exact original graphs.
	sameCorpus(t, rec.Corpus, c)
}

// TestFrameIndexOffsetsProperty checks, over random corpora of varying
// shapes, that every frame-index entry points at a frame whose payload
// CRC-validates and decodes to the named graph — offsets and lengths are
// exact, not just plausible.
func TestFrameIndexOffsetsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) // includes the empty corpus
		c := datagen.ChemicalCorpus(int64(trial), n, datagen.ChemicalOptions{
			MinNodes: 2 + rng.Intn(5), MaxNodes: 8 + rng.Intn(20)})
		nsec := rng.Intn(4)
		secs := make([][]byte, nsec)
		epochs := make([]uint64, nsec)
		for i := range secs {
			secs[i] = make([]byte, rng.Intn(64))
			rng.Read(secs[i])
			epochs[i] = rng.Uint64()
		}
		dir := t.TempDir()
		writeV2(t, dir, c, nsec, epochs, secs...)

		data, err := os.ReadFile(filepath.Join(dir, snapName(0)))
		if err != nil {
			t.Fatal(err)
		}
		var foot [snapFooterSize]byte
		copy(foot[:], data[len(data)-snapFooterSize:])
		if err := checkFooter(foot, ^uint64(0)); err != nil {
			t.Fatalf("trial %d: footer: %v", trial, err)
		}
		fiOff := binary.LittleEndian.Uint64(foot[0:8])
		fib, err := frameAt(data, fiOff, uint64(len(data)-snapFooterSize)-fiOff)
		if err != nil {
			t.Fatalf("trial %d: frame index: %v", trial, err)
		}
		// Header/labels to decode graph payloads.
		hdrb, err := frameAtNext(data, 8)
		if err != nil {
			t.Fatal(err)
		}
		_, labelCount, graphCount, sectionCount, err := decodeSnapshotHeader(hdrb, 0)
		if err != nil {
			t.Fatal(err)
		}
		labb, err := frameAtNext(data, 8+frameHeaderSize+uint64(len(hdrb)))
		if err != nil {
			t.Fatal(err)
		}
		labels, err := decodeLabelTable(labb, labelCount)
		if err != nil {
			t.Fatal(err)
		}
		if int(graphCount) != c.Len() {
			t.Fatalf("trial %d: header graphCount = %d, want %d", trial, graphCount, c.Len())
		}
		d := dec{b: fib}
		if got := d.u32(); got != graphCount {
			t.Fatalf("trial %d: index graphCount = %d, want %d", trial, got, graphCount)
		}
		for i := uint32(0); i < graphCount; i++ {
			name := d.str()
			off := d.u64()
			length := d.u64()
			payload, err := frameAt(data, off, length)
			if err != nil {
				t.Fatalf("trial %d: graph %q frame: %v", trial, name, err)
			}
			g, err := decodeGraphPayload(payload, labels)
			if err != nil {
				t.Fatalf("trial %d: graph %q decode: %v", trial, name, err)
			}
			if g.Name() != name {
				t.Fatalf("trial %d: frame at %d decodes %q, index says %q", trial, off, g.Name(), name)
			}
			if want := c.Graph(int(i)); g.Dump() != want.Dump() {
				t.Fatalf("trial %d: graph %q content mismatch", trial, name)
			}
		}
		if got := d.u32(); got != sectionCount {
			t.Fatalf("trial %d: index sectionCount = %d, want %d", trial, got, sectionCount)
		}
		for i := uint32(0); i < sectionCount; i++ {
			shard := d.u32()
			_ = d.u64() // epoch
			off := d.u64()
			length := d.u64()
			payload, err := frameAt(data, off, length)
			if err != nil {
				t.Fatalf("trial %d: section %d frame: %v", trial, shard, err)
			}
			sd := dec{b: payload}
			sd.u32()
			sd.u64()
			if string(sd.b) != string(secs[shard]) {
				t.Fatalf("trial %d: section %d payload mismatch", trial, shard)
			}
		}
		if err := d.done(); err != nil {
			t.Fatalf("trial %d: trailing frame-index bytes: %v", trial, err)
		}

		// Both readers agree with the original corpus.
		ec, _, err := loadSnapshotFile(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameCorpus(t, ec, c)
		mc, _, _, _, err := loadSnapshotMapped(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameCorpus(t, mc, c)
	}
}

// TestV1SnapshotRejected: a snapshot whose header names format version 1
// is refused on both the eager and the mmap path with
// ErrUnsupportedVersion — never read as corruption of the current format,
// never silently decoded — and store.Open surfaces that reason when it is
// the only snapshot.
func TestV1SnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(0)), []byte(snapMagic+"\x01\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSnapshotFile(dir, 0); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("eager load: err = %v, want ErrUnsupportedVersion", err)
	}
	if _, _, _, _, err := loadSnapshotMapped(dir, 0); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("mapped load: err = %v, want ErrUnsupportedVersion", err)
	}
	for _, mmap := range []bool{false, true} {
		st, _, err := Open(context.Background(), dir, Options{Mmap: mmap})
		if err == nil {
			st.Abandon()
			t.Fatalf("mmap=%v: Open recovered from a v1-only directory", mmap)
		}
		if !errors.Is(err, ErrUnsupportedVersion) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("mmap=%v: Open err = %v, want ErrUnsupportedVersion only", mmap, err)
		}
	}
}

// locateGraphFrame parses the snapshot's frame index and returns the
// byte range of graph i's frame.
func locateGraphFrame(t *testing.T, data []byte, i int) (off, length uint64, name string) {
	t.Helper()
	fiOff := binary.LittleEndian.Uint64(data[len(data)-snapFooterSize:])
	fib, err := frameAt(data, fiOff, uint64(len(data)-snapFooterSize)-fiOff)
	if err != nil {
		t.Fatal(err)
	}
	d := dec{b: fib}
	n := d.u32()
	if uint32(i) >= n {
		t.Fatalf("graph %d out of range (%d graphs)", i, n)
	}
	for j := uint32(0); j <= uint32(i); j++ {
		name = d.str()
		off = d.u64()
		length = d.u64()
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
	return off, length, name
}

func TestBitFlippedGraphFrameErrCorruptAtFirstTouch(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(8)
	writeV2(t, dir, c, 0, nil)

	path := filepath.Join(dir, snapName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := 5
	off, length, name := locateGraphFrame(t, data, victim)
	// Flip one bit in the payload (past the 8-byte frame header).
	data[off+frameHeaderSize+length/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{Mmap: true})
	if rec.Corpus == nil {
		t.Fatal("boot rejected snapshot; a corrupt graph frame must defer to first touch")
	}
	if rec.SnapshotsSkipped != 0 {
		t.Fatalf("SnapshotsSkipped = %d, want 0", rec.SnapshotsSkipped)
	}
	// The corrupt graph errors with ErrCorrupt at first touch — and stays
	// errored (latched), never returning a wrong graph.
	for range [2]int{} {
		_, herr := rec.Corpus.Hydrate(victim)
		if !errors.Is(herr, ErrCorrupt) {
			t.Fatalf("Hydrate(%q) = %v, want ErrCorrupt", name, herr)
		}
	}
	// Every other graph is intact.
	for i := 0; i < rec.Corpus.Len(); i++ {
		if i == victim {
			continue
		}
		g, herr := rec.Corpus.Hydrate(i)
		if herr != nil {
			t.Fatalf("graph %d: %v", i, herr)
		}
		if want := c.Graph(i); g.Dump() != want.Dump() {
			t.Fatalf("graph %d content mismatch", i)
		}
	}
}

func TestCorruptSectionSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(6)
	secs := [][]byte{[]byte("alpha-section"), []byte("beta-section")}
	writeV2(t, dir, c, 2, []uint64{4, 9}, secs...)

	path := filepath.Join(dir, snapName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate section 0's frame via the frame index and flip a payload bit.
	fiOff := binary.LittleEndian.Uint64(data[len(data)-snapFooterSize:])
	fib, err := frameAt(data, fiOff, uint64(len(data)-snapFooterSize)-fiOff)
	if err != nil {
		t.Fatal(err)
	}
	d := dec{b: fib}
	n := d.u32()
	for j := uint32(0); j < n; j++ {
		d.str()
		d.u64()
		d.u64()
	}
	if got := d.u32(); got != 2 {
		t.Fatalf("sectionCount = %d, want 2", got)
	}
	d.u32() // shard
	d.u64() // epoch
	soff := d.u64()
	d.u64()
	if d.err != nil {
		t.Fatal(d.err)
	}
	data[soff+frameHeaderSize+3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{Mmap: true})
	if rec.Corpus == nil || rec.SnapshotsSkipped != 0 {
		t.Fatal("corrupt section must degrade, not reject the snapshot")
	}
	if len(rec.Sections) != 1 {
		t.Fatalf("recovered %d sections, want 1 (the intact one)", len(rec.Sections))
	}
	if rec.Sections[0].Shard != 1 || string(rec.Sections[0].Data) != "beta-section" {
		t.Fatalf("surviving section = %+v, want shard 1", rec.Sections[0])
	}
	sameCorpus(t, rec.Corpus, c)
}

func TestCorruptFrameIndexFallsBackToPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(5)
	st, _ := mustOpen(t, dir, Options{})
	if err := st.WriteSnapshot(c, 0, nil); err != nil {
		t.Fatal(err)
	}
	b := testBatch(t, 1)
	if _, err := st.Append(b); err != nil {
		t.Fatal(err)
	}
	c2 := applyToCorpus(c, b)
	if err := st.WriteSnapshot(c2, 0, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt the newest snapshot's frame index.
	path := filepath.Join(dir, snapName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fiOff := binary.LittleEndian.Uint64(data[len(data)-snapFooterSize:])
	data[fiOff+frameHeaderSize+1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{Mmap: true})
	if rec.SnapshotsSkipped != 1 {
		t.Fatalf("SnapshotsSkipped = %d, want 1", rec.SnapshotsSkipped)
	}
	// Fallback snapshot at seq 0 + WAL suffix replay reconstructs c2.
	got := rec.Corpus
	for _, b := range rec.Batches {
		got, err = ApplyToCorpus(got, b)
		if err != nil {
			t.Fatal(err)
		}
	}
	sameCorpus(t, got, c2)
}

func TestCompactPrunesSupersededSnapshotsAndTmp(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(6)
	st, _ := mustOpen(t, dir, Options{})
	if err := st.WriteSnapshot(c, 0, nil); err != nil {
		t.Fatal(err)
	}
	cur := c
	for i := 0; i < 3; i++ {
		b := testBatch(t, i)
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		cur = applyToCorpus(cur, b)
		if err := st.WriteSnapshot(cur, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Plant a stale tmp file (a crashed mid-write leftover).
	if err := os.WriteFile(filepath.Join(dir, "snap-junk.vqisnap.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	b := testBatch(t, 9)
	if _, err := st.Append(b); err != nil {
		t.Fatal(err)
	}
	cur = applyToCorpus(cur, b)
	pr, err := st.Compact(cur, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.SnapshotWritten {
		t.Fatal("Compact did not write a snapshot")
	}
	if pr.TmpFilesRemoved != 1 {
		t.Fatalf("TmpFilesRemoved = %d, want 1", pr.TmpFilesRemoved)
	}
	if pr.SnapshotsRemoved == 0 || pr.SnapshotBytesReclaimed == 0 {
		t.Fatalf("no superseded snapshots pruned: %+v", pr)
	}
	seqs, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("%d snapshots retained, want 2 (current + fallback): %v", len(seqs), seqs)
	}
	// A second pass with nothing new still succeeds and writes nothing.
	pr2, err := st.Compact(cur, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr2.SnapshotWritten {
		t.Fatal("second Compact rewrote an existing snapshot")
	}
	st.Close()

	// Recovery still works after pruning.
	_, rec := mustOpen(t, dir, Options{})
	sameCorpus(t, rec.Corpus, cur)
}
