package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the background fsync interval under SyncInterval.
	SyncEvery time.Duration
	// Mmap boots from the snapshot's index structures instead of decoding
	// the corpus: the file is mapped read-only (syscall.Mmap on unix, a
	// plain read elsewhere), Recovery.Corpus hydrates graphs lazily from
	// their mapped frames on first touch, and persisted per-shard index
	// sections are surfaced in Recovery.Sections. Version-1 snapshots fall
	// back to the eager load transparently.
	Mmap bool
	// Inject is an optional fault injector armed by robustness tests at
	// the sites store.wal.append, store.wal.fsync, store.snapshot.write,
	// and store.recover.replay. nil in production.
	Inject *faultinject.Injector
}

// Recovery is what Open reconstructed from the data directory.
type Recovery struct {
	// Corpus is the newest valid snapshot's corpus, or nil when the
	// directory holds no snapshot (a fresh directory awaiting a seed).
	// Under Options.Mmap it is lazy: graphs decode from the mapped
	// snapshot on first touch, and a corrupt frame surfaces there as
	// ErrCorrupt instead of failing the boot.
	Corpus *graph.Corpus
	// Meta is the snapshot's index metadata (shard count + epochs).
	Meta SnapshotMeta
	// Batches is the WAL suffix to replay: every durable record with
	// seq > Meta.Seq, in sequence order. The caller replays them through
	// its index-maintenance path (gindex.ApplyBatch).
	Batches []Batch
	// Sections are the persisted per-shard index sections recovered from
	// the snapshot, surfaced only under Options.Mmap (the eager path
	// rebuilds indexes from the decoded corpus anyway). Corrupt sections
	// are dropped here; callers rebuild those shards.
	Sections []IndexSection
	// Mapped reports that the corpus really is backed by an OS mapping
	// (false on the non-unix read fallback and for v1 snapshots).
	Mapped bool
	// TailTruncated reports that a torn or corrupt WAL tail was detected
	// by checksum and cut at the last valid record.
	TailTruncated bool
	// SnapshotsSkipped counts newer snapshots that failed validation and
	// were passed over for an older durable one.
	SnapshotsSkipped int
}

// LastSeq returns the sequence number of the recovered state: the
// snapshot's seq when no WAL records follow it.
func (r *Recovery) LastSeq() uint64 {
	if n := len(r.Batches); n > 0 {
		return r.Batches[n-1].Seq
	}
	return r.Meta.Seq
}

// Store is the durable home of a corpus: snapshots plus a write-ahead
// log in one directory. Safe for concurrent use; appends serialize.
type Store struct {
	dir       string
	inject    *faultinject.Injector
	policy    SyncPolicy
	syncEvery time.Duration
	lock      *os.File // exclusive flock on <dir>/LOCK, held for the store's lifetime

	mu      sync.Mutex
	w       *wal   // nil after a failed WAL rotation; Append then errors
	lastSeq uint64 // highest sequence number ever made durable
	closed  bool
}

// Boot-phase timings, exported as gauges so the last boot's cost is
// scrapeable from /metrics: how long snapshot validation (or mapping)
// took, and how long the WAL scan took.
var (
	obsBootValidateSec = obs.Default.Gauge("store_boot_snapshot_validate_seconds")
	obsBootReplaySec   = obs.Default.Gauge("store_boot_wal_replay_seconds")
)

// lockFileName is the advisory-lock file guarding a data directory: one
// Store (server, compactor, or seeder) at a time. The file itself is
// never removed — only its lock is held and released.
const lockFileName = "LOCK"

func lockFilePath(dir string) string { return filepath.Join(dir, lockFileName) }

// Open mounts a data directory (creating it if needed) and recovers its
// durable state: the newest snapshot that validates, with corrupted ones
// skipped, and the WAL suffix past it, with any torn tail truncated at
// the first invalid record. The returned Store continues the sequence
// numbering where the recovered state ends.
//
// Open takes an exclusive lock on the directory and fails fast if another
// process holds it — a compaction (vqimaintain -compact) can never race a
// live server's appends over the same WAL. The lock is released by Close
// or, if the process dies, by the kernel.
func Open(ctx context.Context, dir string, opts Options) (st *Store, rec *Recovery, err error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("store: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if opts.Sync == SyncInterval && opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	st = &Store{dir: dir, inject: opts.Inject, policy: opts.Sync, syncEvery: opts.SyncEvery, lock: lock}
	rec = &Recovery{}

	// Stage 1: newest valid snapshot. Corrupt snapshots (bit flips,
	// partial writes that somehow reached the final name) are detected by
	// frame checksums and skipped in favor of the previous retained one.
	// Under Options.Mmap the snapshot is validated by header + frame index
	// + sections only and the corpus comes back lazy.
	t0 := time.Now()
	spanName := "store.recover.snapshot"
	if opts.Mmap {
		spanName = "store.recover.map"
	}
	_, span := obs.StartSpan(ctx, spanName)
	seqs, err := listSnapshots(dir)
	if err != nil {
		return nil, nil, err
	}
	var lerr error // why the last snapshot tried was rejected
	for _, seq := range seqs {
		var (
			c    *graph.Corpus
			meta SnapshotMeta
		)
		if opts.Mmap {
			c, meta, rec.Sections, rec.Mapped, lerr = loadSnapshotMapped(dir, seq)
		} else {
			c, meta, lerr = loadSnapshotFile(dir, seq)
		}
		if lerr != nil {
			if obs.On() {
				obsSnapCorrupt.Inc()
			}
			rec.SnapshotsSkipped++
			rec.Sections, rec.Mapped = nil, false
			continue
		}
		rec.Corpus = c
		rec.Meta = meta
		break
	}
	span.End()
	if obs.On() {
		obsBootValidateSec.Set(time.Since(t0).Seconds())
	}
	if rec.Corpus == nil && rec.SnapshotsSkipped > 0 {
		return nil, nil, fmt.Errorf("store: all %d snapshots in %s are corrupt or unreadable: %w", rec.SnapshotsSkipped, dir, lerr)
	}

	// Stage 2: WAL scan + torn-tail truncation + suffix selection.
	t0 = time.Now()
	_, span = obs.StartSpan(ctx, "store.recover.replay")
	walPath := filepath.Join(dir, walFileName)
	records, validEnd, torn, err := scanWAL(walPath, opts.Inject)
	span.End()
	if obs.On() {
		obsBootReplaySec.Set(time.Since(t0).Seconds())
	}
	if err != nil {
		return nil, nil, err
	}
	if torn {
		if terr := os.Truncate(walPath, validEnd); terr != nil {
			return nil, nil, fmt.Errorf("store: truncating torn WAL tail: %w", terr)
		}
		rec.TailTruncated = true
		if obs.On() {
			obsWALTornTails.Inc()
		}
	}
	st.lastSeq = rec.Meta.Seq
	for _, b := range records {
		if b.Seq <= rec.Meta.Seq {
			// Already folded into the snapshot; validated but not replayed.
			continue
		}
		if b.Seq != st.maxSeq(rec)+1 {
			return nil, nil, fmt.Errorf("store: WAL sequence gap: snapshot covers seq %d, next record is seq %d",
				st.maxSeq(rec), b.Seq)
		}
		rec.Batches = append(rec.Batches, b)
	}
	if n := len(records); n > 0 && records[n-1].Seq > st.lastSeq {
		st.lastSeq = records[n-1].Seq
	}

	// Stage 3: open the append handle; new records continue the sequence.
	st.w, err = openWAL(dir, opts.Sync, opts.SyncEvery)
	if err != nil {
		return nil, nil, err
	}
	return st, rec, nil
}

// maxSeq is the highest seq currently accounted for in rec.
func (st *Store) maxSeq(rec *Recovery) uint64 { return rec.LastSeq() }

// Dir returns the data directory.
func (st *Store) Dir() string { return st.dir }

// LastSeq returns the highest durable sequence number.
func (st *Store) LastSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSeq
}

// Append durably logs one batch and returns its sequence number. Under
// SyncAlways the batch has reached stable storage when Append returns
// nil — the caller may acknowledge it. On error the batch MUST NOT be
// applied and is no longer on disk either: the failed frame is rolled
// back (truncated away) before Append returns, so the store keeps
// accepting appends with the log exactly as the last acknowledgement left
// it. If the rollback itself fails the store fail-stops — every further
// Append returns the latched error.
func (st *Store) Append(b Batch) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, fmt.Errorf("store: append on closed store")
	}
	if st.w == nil {
		return 0, fmt.Errorf("store: WAL unavailable after a failed rotation; restart to recover")
	}
	seq := st.lastSeq + 1
	frame := appendFrame(nil, encodeBatch(seq, b))
	if err := st.w.append(frame, st.inject); err != nil {
		return 0, err
	}
	st.lastSeq = seq
	return seq, nil
}

// Seed writes the initial snapshot into a directory that recovered no
// snapshot. It refuses when the directory nevertheless holds WAL records:
// that state means snapshot files were deleted or lost, and stamping a
// fresh seed at the WAL's last sequence number would silently diverge —
// this boot would replay the orphaned records onto the seed while every
// later boot skips them as "already folded in".
func (st *Store) Seed(c *graph.Corpus) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("store: seed on closed store")
	}
	if st.lastSeq != 0 {
		return fmt.Errorf("store: refusing to seed %s: it holds WAL records through seq %d but no snapshot (snapshot files deleted?); restore a snapshot or clear the directory", st.dir, st.lastSeq)
	}
	_, err := st.writeSnapshotLocked(c, 0, nil, nil)
	return err
}

// PruneReport accounts what one snapshot/compaction pass reclaimed.
type PruneReport struct {
	// SnapshotWritten reports that a new snapshot file was created (false
	// when one already covered the current sequence number — the pass then
	// only prunes).
	SnapshotWritten bool
	// SnapshotsRemoved / SnapshotBytesReclaimed cover superseded snapshot
	// files beyond the newest one plus its single retained fallback.
	SnapshotsRemoved       int
	SnapshotBytesReclaimed int64
	// TmpFilesRemoved counts stale temporary files (crashed mid-write
	// leftovers) deleted from the directory.
	TmpFilesRemoved int
	// WALRecordsFolded / WALBytesReclaimed cover write-ahead-log records
	// already covered by the retained snapshots and dropped by the
	// rewrite.
	WALRecordsFolded  int
	WALBytesReclaimed int64
}

// WriteSnapshot persists a full corpus image covering every record up to
// and including the store's current last sequence number, then prunes:
// the previous snapshot is retained as the corruption fallback, older
// ones are deleted, and the WAL is rewritten (atomically, via rename) to
// keep only records newer than the retained fallback — the "fold the WAL
// into a snapshot" compaction step. sections, when given, are the
// serialized per-shard index sections (indexed by shard; nil/empty
// entries are skipped) persisted for the mmap boot path.
func (st *Store) WriteSnapshot(c *graph.Corpus, shards int, epochs []uint64, sections ...[]byte) error {
	_, err := st.Compact(c, shards, epochs, sections...)
	return err
}

// Compact is WriteSnapshot plus accounting: it returns what the pass
// wrote and reclaimed. Unlike earlier revisions, a pass whose snapshot
// already exists still prunes — long-lived data directories stop growing
// without bound even when nothing new needs folding.
func (st *Store) Compact(c *graph.Corpus, shards int, epochs []uint64, sections ...[]byte) (PruneReport, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return PruneReport{}, fmt.Errorf("store: snapshot on closed store")
	}
	return st.writeSnapshotLocked(c, shards, epochs, sections)
}

func (st *Store) writeSnapshotLocked(c *graph.Corpus, shards int, epochs []uint64, sections [][]byte) (PruneReport, error) {
	var pr PruneReport
	meta := SnapshotMeta{Seq: st.lastSeq, Shards: shards, Epochs: epochs}
	prev, err := listSnapshots(st.dir)
	if err != nil {
		return pr, err
	}
	if len(prev) == 0 || prev[0] != meta.Seq {
		if err := st.writeSnapshotFile(c, meta, sections); err != nil {
			return pr, err
		}
		pr.SnapshotWritten = true
		prev = append([]uint64{meta.Seq}, prev...)
	}
	// Retention: the newest snapshot plus one fallback. Everything older
	// is superseded — recovery never reads past the first valid snapshot —
	// so it is deleted and accounted.
	var keepSeq uint64
	if len(prev) > 1 {
		keepSeq = prev[1]
	}
	if len(prev) > 2 {
		for _, old := range prev[2:] {
			path := filepath.Join(st.dir, snapName(old))
			if fi, err := os.Stat(path); err == nil {
				pr.SnapshotBytesReclaimed += fi.Size()
			}
			if os.Remove(path) == nil {
				pr.SnapshotsRemoved++
			}
		}
	}
	pr.TmpFilesRemoved = st.removeStaleTmpLocked()
	// Fold: drop WAL records covered by both retained snapshots.
	folded, reclaimed, err := st.truncateWALLocked(keepSeq)
	pr.WALRecordsFolded, pr.WALBytesReclaimed = folded, reclaimed
	return pr, err
}

// removeStaleTmpLocked deletes leftover *.tmp files (crashed mid-write
// snapshots or WAL rewrites). Safe under st.mu: every live tmp writer in
// this process also holds st.mu, and the directory lock excludes other
// processes.
func (st *Store) removeStaleTmpLocked() int {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".tmp") {
			continue
		}
		if os.Remove(filepath.Join(st.dir, ent.Name())) == nil {
			removed++
		}
	}
	return removed
}

// truncateWALLocked rewrites the WAL keeping only records with
// seq > keep, swapping the new file in atomically via rename. The append
// handle is re-opened on the new file. Callers hold st.mu. Returns how
// many records were dropped and how many bytes the file shrank by.
func (st *Store) truncateWALLocked(keep uint64) (folded int, reclaimed int64, err error) {
	path := filepath.Join(st.dir, walFileName)
	records, _, _, err := scanWAL(path, nil)
	if err != nil {
		return 0, 0, err
	}
	var out []byte
	for _, b := range records {
		if b.Seq > keep {
			out = appendFrame(out, encodeBatch(b.Seq, b))
		} else {
			folded++
		}
	}
	if fi, serr := os.Stat(path); serr == nil {
		reclaimed = fi.Size() - int64(len(out))
		if reclaimed < 0 {
			reclaimed = 0
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return 0, 0, err
	}
	if f, err := os.Open(tmp); err == nil {
		f.Sync()
		f.Close()
	}
	// Swap under the old handle, then re-open appends on the new file. The
	// old handle is useless either way once the rename lands (it points at
	// the unlinked inode), so if the re-open fails the store is left with
	// no WAL handle and Append reports that instead of panicking.
	old := st.w
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	syncDir(st.dir)
	old.close()
	st.w, err = openWAL(st.dir, st.policy, st.syncEvery)
	if err != nil {
		st.w = nil
		return folded, reclaimed, fmt.Errorf("store: re-opening WAL after rewrite: %w", err)
	}
	return folded, reclaimed, nil
}

// Close flushes and releases the WAL handle and the directory lock. It
// returns any failure the WAL latched while running (e.g. a background
// fsync error under interval sync).
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var err error
	if st.w != nil {
		err = st.w.close()
	}
	if st.lock != nil {
		if cerr := st.lock.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Abandon simulates an abrupt process death for crash-recovery tests: it
// releases the store's OS resources — the WAL handle and the directory
// lock — without flushing anything, leaving the directory exactly as a
// kill -9 would. Production code uses Close.
func (st *Store) Abandon() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	if st.w != nil {
		st.w.abandon()
	}
	if st.lock != nil {
		st.lock.Close()
	}
}
