package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Mapped snapshot loading: the Options.Mmap boot path. Instead of decoding
// the whole corpus, it walks footer → frame index → header + labels +
// section frames — O(index), independent of total graph bytes — and
// registers a lazy corpus whose entries decode straight from the mapping
// on first touch. Each hydration re-checks its frame's CRC, so corruption
// under the mapping surfaces as ErrCorrupt at touch time, never as a wrong
// graph.

// snapMapping owns the bytes of one mapped (or, on non-unix platforms,
// fully read) snapshot file. Lazy corpus entries keep it reachable through
// their loader closures; when the last corpus referencing it is collected,
// the finalizer returns the mapping to the OS. Nothing unmaps eagerly —
// Store.Close must not, since hydrations may still be in flight long after
// the store handle is gone.
type snapMapping struct {
	data   []byte
	mapped bool
}

// openSnapMapping maps path read-only, falling back to a plain read when
// the platform (or filesystem) cannot mmap.
func openSnapMapping(path string) (*snapMapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mapFile(f, fi.Size())
	if err != nil || !mapped {
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		mapped = false
	}
	m := &snapMapping{data: data, mapped: mapped}
	if mapped {
		runtime.SetFinalizer(m, func(m *snapMapping) { unmapFile(m.data) })
	}
	return m, nil
}

// loadSnapshotMapped validates the snapshot covering seq by its index
// structures only and returns a lazy corpus plus the persisted index
// sections. mapped reports whether the graphs really are backed by an OS
// mapping (false on the read fallback). A corrupt section frame is
// skipped — the caller rebuilds that shard — while a corrupt header, label
// table, frame index, or footer rejects the whole snapshot so recovery
// falls back to the previous one.
func loadSnapshotMapped(dir string, seq uint64) (c *graph.Corpus, meta SnapshotMeta, sections []IndexSection, mapped bool, err error) {
	m, err := openSnapMapping(filepath.Join(dir, snapName(seq)))
	if err != nil {
		return nil, meta, nil, false, err
	}
	data := m.data
	if len(data) < 8 || string(data[:6]) != snapMagic || data[7] != '\n' {
		return nil, meta, nil, false, fmt.Errorf("%w: bad snapshot magic %q", ErrCorrupt, data[:min(len(data), 8)])
	}
	if data[6] != snapVersion {
		return nil, meta, nil, false, unsupportedVersion(data[6])
	}
	if len(data) < 8+snapFooterSize {
		return nil, meta, nil, false, fmt.Errorf("%w: snapshot shorter than magic + footer", ErrCorrupt)
	}

	var foot [snapFooterSize]byte
	copy(foot[:], data[len(data)-snapFooterSize:])
	if err := checkFooter(foot, ^uint64(0)); err != nil {
		return nil, meta, nil, false, err
	}
	fiOff := binary.LittleEndian.Uint64(foot[0:8])
	bodyEnd := uint64(len(data) - snapFooterSize)
	if fiOff < 8 || fiOff >= bodyEnd {
		return nil, meta, nil, false, fmt.Errorf("%w: footer frame-index offset %d outside file", ErrCorrupt, fiOff)
	}

	// Header and labels sit right after the magic.
	hdrb, err := frameAtNext(data, 8)
	if err != nil {
		return nil, meta, nil, false, fmt.Errorf("snapshot header: %w", err)
	}
	meta, labelCount, graphCount, sectionCount, err := decodeSnapshotHeader(hdrb, seq)
	if err != nil {
		return nil, meta, nil, false, err
	}
	labOff := 8 + frameHeaderSize + uint64(len(hdrb))
	labb, err := frameAtNext(data, labOff)
	if err != nil {
		return nil, meta, nil, false, fmt.Errorf("snapshot label table: %w", err)
	}
	labels, err := decodeLabelTable(labb, labelCount)
	if err != nil {
		return nil, meta, nil, false, err
	}

	// The frame index must span exactly [fiOff, bodyEnd).
	fib, err := frameAt(data, fiOff, bodyEnd-fiOff)
	if err != nil {
		return nil, meta, nil, false, fmt.Errorf("snapshot frame index: %w", err)
	}
	fd := dec{b: fib}
	if n := fd.u32(); n != graphCount {
		return nil, meta, nil, false, fmt.Errorf("%w: frame index lists %d graphs, header says %d", ErrCorrupt, n, graphCount)
	}
	c = graph.NewCorpus()
	minGraphOff := labOff + frameHeaderSize + uint64(len(labb))
	for i := uint32(0); i < graphCount; i++ {
		name := fd.str()
		off := fd.u64()
		n := fd.u64()
		if fd.err != nil {
			return nil, meta, nil, false, fmt.Errorf("snapshot frame index: %w", fd.err)
		}
		if off < minGraphOff || n < frameHeaderSize || off+n > fiOff || off+n < off {
			return nil, meta, nil, false, fmt.Errorf("%w: graph %q frame [%d,+%d) outside snapshot body", ErrCorrupt, name, off, n)
		}
		gname := name
		goff, gn := off, n
		if err := c.AddLazy(name, func() (*graph.Graph, error) {
			payload, err := frameAt(m.data, goff, gn)
			if err != nil {
				return nil, fmt.Errorf("snapshot graph %q: %w", gname, err)
			}
			g, err := decodeGraphPayload(payload, labels)
			if err != nil {
				return nil, fmt.Errorf("snapshot graph %q: %w", gname, err)
			}
			if g.Name() != gname {
				return nil, fmt.Errorf("%w: frame at %d holds graph %q, index says %q", ErrCorrupt, goff, g.Name(), gname)
			}
			return g, nil
		}); err != nil {
			return nil, meta, nil, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if n := fd.u32(); n != sectionCount {
		return nil, meta, nil, false, fmt.Errorf("%w: frame index lists %d sections, header says %d", ErrCorrupt, n, sectionCount)
	}
	for i := uint32(0); i < sectionCount; i++ {
		shard := fd.u32()
		epoch := fd.u64()
		off := fd.u64()
		n := fd.u64()
		if fd.err != nil {
			return nil, meta, nil, false, fmt.Errorf("snapshot frame index: %w", fd.err)
		}
		// Sections are degrade-not-reject: a bad frame means this shard is
		// rebuilt from the corpus, exactly like a shard with no section.
		payload, err := frameAt(data, off, n)
		if err != nil {
			if obs.On() {
				obsSectionsCorrupt.Inc()
			}
			continue
		}
		sd := dec{b: payload}
		gotShard := sd.u32()
		gotEpoch := sd.u64()
		if sd.err != nil || gotShard != shard || gotEpoch != epoch || int(shard) >= meta.Shards {
			if obs.On() {
				obsSectionsCorrupt.Inc()
			}
			continue
		}
		sections = append(sections, IndexSection{Shard: int(shard), Epoch: epoch, Data: sd.b})
		if obs.On() {
			obsSectionsLoaded.Inc()
		}
	}
	if err := fd.done(); err != nil {
		return nil, meta, nil, false, fmt.Errorf("snapshot frame index: %w", err)
	}
	if obs.On() {
		if m.mapped {
			obsSnapMapped.Inc()
		}
		obsSnapLoads.Inc()
	}
	return c, meta, sections, m.mapped, nil
}

// frameAtNext reads the frame whose header starts at off, taking its
// length from the header itself (bounds- and CRC-checked).
func frameAtNext(data []byte, off uint64) ([]byte, error) {
	if off+frameHeaderSize > uint64(len(data)) {
		return nil, fmt.Errorf("%w: frame header at %d outside file", ErrCorrupt, off)
	}
	n := uint64(binary.LittleEndian.Uint32(data[off : off+4]))
	return frameAt(data, off, frameHeaderSize+n)
}
