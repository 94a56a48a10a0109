package statebackend

import (
	"fmt"
	"testing"
)

// The two state shapes the engine's operators produce. join is the
// incremental join's: 10 k list keys, each a record key holding both sides'
// buffered records — three to five state records of 120 bytes, each opening
// with its side. window is the sliding window's: 50 k KV keys of the winKey
// form with a two-byte accumulator — all key, hardly any value, so it is the
// sort that costs.
var benchShapes = []struct {
	name string
	fill func(put func(recordKey, storageKey string, value []byte, list bool))
}{
	{"join", func(put func(string, string, []byte, bool)) {
		var sides [2][]byte
		for side := range sides {
			sides[side] = make([]byte, 120)
			sides[side][0] = byte(side)
		}
		for k := 0; k < 20000; k++ {
			key := fmt.Sprint("p", k/2)
			for v := 0; v <= k%3; v++ {
				put(key, key, sides[k%2], true)
			}
		}
	}},
	{"window", func(put func(string, string, []byte, bool)) {
		for k := 0; k < 50000; k++ {
			key := fmt.Sprint("k", k%5000)
			put(key, testWinKey(key, int64(k/5000)*25), []byte{'4', '2'}, false)
		}
	}},
}

// benchTasks fills p namespaces of one store the way p tasks of an operator
// would hold the shape, and returns them with the bytes they store.
func benchTasks(fill func(func(string, string, []byte, bool)), p int) ([]*Namespace, int64) {
	store := NewStore(nil, Options{})
	tasks := make([]*Namespace, p)
	for i := range tasks {
		tasks[i] = store.Namespace(fmt.Sprint("task", i))
	}
	fill(func(recordKey, storageKey string, value []byte, list bool) {
		ns := tasks[TaskForGroup(KeyGroupOf(recordKey, DefaultKeyGroups), p, DefaultKeyGroups)]
		if list {
			ns.Append(storageKey, value)
		} else {
			ns.Put(storageKey, value)
		}
	})
	return tasks, int64(store.TotalBytes())
}

func snapshotAll(b *testing.B, tasks []*Namespace) [][]byte {
	images := make([][]byte, len(tasks))
	for i, ns := range tasks {
		var err error
		if images[i], err = ns.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	return images
}

func BenchmarkSnapshot(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			tasks, stored := benchTasks(shape.fill, 1)
			b.SetBytes(stored)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snapshotAll(b, tasks)
			}
		})
	}
}

func BenchmarkRestore(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			tasks, stored := benchTasks(shape.fill, 1)
			image := snapshotAll(b, tasks)[0]
			into := NewStore(nil, Options{}).Namespace("restored")
			b.SetBytes(stored)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := into.Restore(image); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRepartition(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			tasks, stored := benchTasks(shape.fill, 4)
			images := snapshotAll(b, tasks)
			b.SetBytes(stored)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Repartition(images, 4, 6, DefaultKeyGroups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
