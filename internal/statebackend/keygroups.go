package statebackend

import (
	"encoding/binary"
	"fmt"
)

// Key-range-partitioned keyed state (Flink's key groups): every record key
// hashes into one of a fixed number of key-groups, and an operator task owns
// a contiguous range of groups. The group count is fixed for the life of a
// job, so changing an operator's parallelism only re-assigns whole groups to
// tasks — state moves group-by-group, exactly, without rehashing individual
// keys against a new task count.
//
// The three functions below are one consistent scheme and must not drift
// apart: TaskForGroup(g, p, G) == i exactly when RangeFor(i, p, G) contains
// g, and the ranges of all p tasks partition [0, G).

// DefaultKeyGroups is the key-group count used when Options.NumKeyGroups is
// zero. It bounds the maximum useful parallelism of any keyed operator, the
// way Flink's maxParallelism does.
const DefaultKeyGroups = 128

// KeyHash is the hash keyed routing and key-group partitioning share: FNV-1a
// (as hash/fnv.New32a) over the logical key, which is the key up to its first
// NUL byte. Operators store state under the record key itself (the
// incremental join, sessions) or under a storage key derived from it by
// appending a NUL and binary metadata (the engine's winKey), so stopping
// there keeps every storage key of one record key in the group its records
// are routed by. A namespace hashes a key once, when it is first written,
// and keeps the group beside the entry. The price is skew, not correctness:
// record keys that differ only after a NUL of their own share a key-group and
// a task.
func KeyHash(key string) uint32 { return keyHash(key) }

func keyHash[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key) && key[i] != 0; i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// KeyGroupOf maps a record key, or a storage key derived from it, to its
// key-group: KeyHash modulo the group count.
func KeyGroupOf(key string, numGroups int) int {
	return int(keyHash(key) % uint32(numGroups))
}

// KeyRange is a half-open range [Start, End) of key-groups.
type KeyRange struct {
	Start int // first group in the range
	End   int // one past the last group
}

// Contains reports whether group g falls in the range.
func (r KeyRange) Contains(g int) bool { return g >= r.Start && g < r.End }

// Len is the number of groups in the range.
func (r KeyRange) Len() int { return r.End - r.Start }

func (r KeyRange) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// checkPartition validates a (parallelism, numGroups) pair: a task must own
// at least one group, so parallelism cannot exceed the group count.
func checkPartition(parallelism, numGroups int) error {
	if numGroups <= 0 {
		return fmt.Errorf("statebackend: numGroups must be positive, have %d", numGroups)
	}
	if parallelism <= 0 {
		return fmt.Errorf("statebackend: parallelism must be positive, have %d", parallelism)
	}
	if parallelism > numGroups {
		return fmt.Errorf("statebackend: parallelism %d exceeds %d key-groups", parallelism, numGroups)
	}
	return nil
}

// TaskForGroup returns the task index owning group g at the given
// parallelism. Callers must have validated the pair (see checkPartition);
// the formula is Flink's computeOperatorIndexForKeyGroup.
func TaskForGroup(g, parallelism, numGroups int) int {
	return g * parallelism / numGroups
}

// RangeFor returns the key-group range owned by task `index` at the given
// parallelism: exactly the groups g with TaskForGroup(g) == index.
func RangeFor(index, parallelism, numGroups int) KeyRange {
	ceil := func(a int) int { return (a + parallelism - 1) / parallelism }
	return KeyRange{Start: ceil(index * numGroups), End: ceil((index + 1) * numGroups)}
}

// AssignGroups returns every task's key-group range at the given
// parallelism. The ranges partition [0, numGroups) in task order.
func AssignGroups(parallelism, numGroups int) ([]KeyRange, error) {
	if err := checkPartition(parallelism, numGroups); err != nil {
		return nil, err
	}
	out := make([]KeyRange, parallelism)
	for i := range out {
		out[i] = RangeFor(i, parallelism, numGroups)
	}
	return out, nil
}

// AssignGroups is the Store-level view using the store's configured group
// count.
func (s *Store) AssignGroups(parallelism int) ([]KeyRange, error) {
	return AssignGroups(parallelism, s.opts.NumKeyGroups)
}

// Repartition re-splits per-task namespace images for a parallelism change.
// images[i] is old task i's Snapshot image (nil for an empty namespace). It
// returns newParallelism images — new task i's image holds exactly the
// groups in RangeFor(i, newParallelism, numGroups) — plus the number of
// stored bytes whose owning task changed (the state that must move between
// workers). The split/merge is exact: every group lands in exactly one new
// image, byte-for-byte as it was snapshotted, and repartitioning back to the
// old parallelism reproduces the original images.
func Repartition(images [][]byte, oldParallelism, newParallelism, numGroups int) ([][]byte, int64, error) {
	if err := checkPartition(oldParallelism, numGroups); err != nil {
		return nil, 0, err
	}
	if err := checkPartition(newParallelism, numGroups); err != nil {
		return nil, 0, err
	}
	if len(images) != oldParallelism {
		return nil, 0, fmt.Errorf("statebackend: repartition of %d images at old parallelism %d", len(images), oldParallelism)
	}
	// Groups move as the byte spans they occupy in the old images: a group's
	// encoding does not depend on which image holds it.
	bodies := make([][]byte, numGroups)
	from := make([]int, numGroups)
	var moved int64
	for oldIdx, buf := range images {
		groups, err := decodeImageGroups(buf, numGroups, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("statebackend: repartition image %d: %w", oldIdx, err)
		}
		for _, d := range groups {
			if bodies[d.g] != nil {
				return nil, 0, fmt.Errorf("statebackend: group %d held by old tasks %d and %d", d.g, from[d.g], oldIdx)
			}
			bodies[d.g], from[d.g] = d.body, oldIdx
			if TaskForGroup(d.g, newParallelism, numGroups) != oldIdx {
				moved += d.held
			}
		}
	}
	out := make([][]byte, newParallelism)
	for i := range out {
		r := RangeFor(i, newParallelism, numGroups)
		count, size := 0, 0
		for g := r.Start; g < r.End; g++ {
			if bodies[g] != nil {
				count++
				size += uvarintLen(g) + len(bodies[g])
			}
		}
		buf := appendImageHeader(make([]byte, 0, imageHeaderLen(count)+size), count)
		for g := r.Start; g < r.End; g++ {
			if bodies[g] != nil {
				buf = append(binary.AppendUvarint(buf, uint64(g)), bodies[g]...)
			}
		}
		out[i] = buf
	}
	return out, moved, nil
}

// Repartition is the Store-level Repartition using the store's configured
// group count.
func (s *Store) Repartition(images [][]byte, oldParallelism, newParallelism int) ([][]byte, int64, error) {
	return Repartition(images, oldParallelism, newParallelism, s.opts.NumKeyGroups)
}
