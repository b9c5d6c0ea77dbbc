package qcache

import "strconv"

// Epoch-scoped key helpers. A sharded index (gindex.Sharded) bumps a
// shard's epoch only when a batch update rebuilds that shard, so baking
// epochs into the cache key makes invalidation free and exactly scoped:
// after an update, keys that cover a rebuilt shard change (their old
// entries become unreachable and age out of the LRU) while every other
// key still hits. No Reset, no scanning, no entries dropped that are
// still valid.

// ShardKey keys a per-shard partial result: base (typically the canonical
// query code) scoped to one shard at one epoch. Entries cached under it
// stay valid exactly as long as the shard is not rebuilt. vqiserve keeps
// no per-shard cache; vqibench's in-process replica still uses this key.
func ShardKey(base string, shard int, epoch uint64) string {
	return base + "|s" + strconv.Itoa(shard) + "@" + strconv.FormatUint(epoch, 10)
}

// PlanKey keys a compiled query plan by canonical query code (plus any
// compile-config signature in base) against the full epoch vector: plans
// bake in corpus-wide label statistics, so any shard rebuild invalidates
// them. The "p|" prefix namespaces plans away from whole-query answers
// cached under the same base.
func PlanKey(base string, epochs []uint64) string {
	return EpochKey("p|"+base, epochs)
}

// EpochKey keys a whole-corpus answer: base scoped to the full epoch
// vector. Any shard rebuild changes the key, so a full answer is reused
// only when no shard changed since it was computed — the sound criterion
// for a result that depends on every shard.
func EpochKey(base string, epochs []uint64) string {
	// Pre-size: "|e" + per-epoch digits + separators.
	n := len(base) + 2 + len(epochs)*3
	buf := make([]byte, 0, n)
	buf = append(buf, base...)
	buf = append(buf, '|', 'e')
	for i, e := range epochs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, e, 10)
	}
	return string(buf)
}
