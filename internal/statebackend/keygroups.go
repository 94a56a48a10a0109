package statebackend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
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

// KeyGroupOf maps a record key to its key-group: FNV-1a over the key bytes,
// modulo the group count. The hash is byte-identical to hash/fnv.New32a so
// the engine's inlined routing hash and this function can never disagree.
func KeyGroupOf(key string, numGroups int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(numGroups))
}

// storageKeyGroup maps a storage key to its key-group. Operators derive
// storage keys from the record key by appending a NUL byte and binary
// window metadata (the engine's winKey convention); a key without a NUL is
// its own logical key. Partitioning on the prefix keeps every storage key of
// one record key in one group.
func storageKeyGroup(k []byte, numGroups int) int {
	if i := bytes.IndexByte(k, 0); i >= 0 {
		k = k[:i]
	}
	return KeyGroupOf(string(k), numGroups)
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

// decodedGroup is one key-group's contents during repartitioning.
type decodedGroup struct {
	g     int
	data  []nsEntry
	lists []nsListEntry
}

// bytesHeld is the group's stored-byte accounting, matching the Namespace
// bookkeeping (len(key)+len(value) per entry; len(key)+sum(values) per list).
func (d *decodedGroup) bytesHeld() int64 {
	var n int64
	for _, e := range d.data {
		n += int64(len(e.K) + len(e.V))
	}
	for _, e := range d.lists {
		n += int64(len(e.K))
		for _, v := range e.V {
			n += int64(len(v))
		}
	}
	return n
}

// decodeImageGroups decodes one namespace image into its key-groups — the
// only decoder, for Restore and Repartition alike. Images come from outside
// the process (a coordinator's snapshot store, another worker), so the
// decode is strict: a field the grouped layout does not have (the flat
// pre-key-group layout's "data"/"lists" among them), a group outside
// [0,numGroups), a group listed twice or a key out of place is an error,
// never a silently empty, partial or misrouted restore.
func decodeImageGroups(buf []byte, numGroups int) (map[int]*decodedGroup, error) {
	var img nsImage
	if len(buf) > 0 {
		dec := json.NewDecoder(bytes.NewReader(buf))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&img); err != nil {
			return nil, err
		}
	}
	groups := make(map[int]*decodedGroup, len(img.Groups))
	for _, gi := range img.Groups {
		if gi.G < 0 || gi.G >= numGroups {
			return nil, fmt.Errorf("statebackend: image holds group %d outside [0,%d)", gi.G, numGroups)
		}
		if _, dup := groups[gi.G]; dup {
			return nil, fmt.Errorf("statebackend: image holds group %d twice", gi.G)
		}
		// Keys sit where encodeGroups puts them: in the group they hash to (a
		// rescale would hand a misfiled key to the wrong task) and strictly
		// ascending (a repeated key would restore over its twin).
		for i, e := range gi.Data {
			if storageKeyGroup(e.K, numGroups) != gi.G || i > 0 && bytes.Compare(gi.Data[i-1].K, e.K) >= 0 {
				return nil, fmt.Errorf("statebackend: image holds key %q out of place in group %d", e.K, gi.G)
			}
		}
		for i, e := range gi.Lists {
			if storageKeyGroup(e.K, numGroups) != gi.G || i > 0 && bytes.Compare(gi.Lists[i-1].K, e.K) >= 0 {
				return nil, fmt.Errorf("statebackend: image holds list key %q out of place in group %d", e.K, gi.G)
			}
		}
		groups[gi.G] = &decodedGroup{g: gi.G, data: gi.Data, lists: gi.Lists}
	}
	return groups, nil
}

// encodeGroups marshals a set of key-groups into the canonical grouped
// image: groups in ascending order, entries sorted by key within each.
func encodeGroups(groups []*decodedGroup) ([]byte, error) {
	sort.Slice(groups, func(i, j int) bool { return groups[i].g < groups[j].g })
	var img nsImage
	for _, d := range groups {
		gi := groupImage{G: d.g, Data: d.data, Lists: d.lists}
		sort.Slice(gi.Data, func(i, j int) bool { return string(gi.Data[i].K) < string(gi.Data[j].K) })
		sort.Slice(gi.Lists, func(i, j int) bool { return string(gi.Lists[i].K) < string(gi.Lists[j].K) })
		img.Groups = append(img.Groups, gi)
	}
	return json.Marshal(img)
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
	perTask := make([][]*decodedGroup, newParallelism)
	seen := make(map[int]int) // group -> old task it came from
	var moved int64
	for oldIdx, buf := range images {
		groups, err := decodeImageGroups(buf, numGroups)
		if err != nil {
			return nil, 0, fmt.Errorf("statebackend: repartition image %d: %w", oldIdx, err)
		}
		for g, d := range groups {
			if prev, dup := seen[g]; dup {
				return nil, 0, fmt.Errorf("statebackend: group %d held by old tasks %d and %d", g, prev, oldIdx)
			}
			seen[g] = oldIdx
			newIdx := TaskForGroup(g, newParallelism, numGroups)
			perTask[newIdx] = append(perTask[newIdx], d)
			if newIdx != oldIdx {
				moved += d.bytesHeld()
			}
		}
	}
	out := make([][]byte, newParallelism)
	for i, groups := range perTask {
		buf, err := encodeGroups(groups)
		if err != nil {
			return nil, 0, fmt.Errorf("statebackend: repartition encode task %d: %w", i, err)
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
