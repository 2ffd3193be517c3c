// Package plistore is the compressed, budget-governed resting store
// for position list indexes. Discovery retains one PLI per attribute
// (plus intersected partitions in the level-wise engines), and that
// retained state is what trips memory budgets first on large inputs:
// ingest already streams out-of-core, but Papenbrock & Naumann's
// algorithms keep every PLI resident, capping dataset size at RAM.
//
// The store breaks that cap in three steps:
//
//   - Partitions rest compressed: each cluster's sorted row ids are
//     delta-varint encoded (absolute first row, zigzag deltas after)
//     into size-classed segments, typically 4-8x smaller than the flat
//     [][]int form.
//   - Decoding is on demand: Acquire materializes the flat PLI (cached
//     for reuse, pinned against eviction while held by a validation
//     worker), Release unpins it.
//   - Above the budget ceiling a clock sweep evicts cold state
//     cheapest-first: decoded partitions are dropped (they are pure
//     cache), then compressed segments either vanish — single-column
//     partitions are recomputable from the columnar codes — or spill
//     to a transient temp file, decided by a recompute-vs-reload cost
//     model.
//
// Every run has one store, and its tracker picks the regime: only a
// memory ceiling makes the store governed as above. Without one the
// store is resident — partitions stay flat and uncompressed, nothing
// is charged or registered for eviction — so engines put and acquire
// through handles unconditionally and the unconstrained fast path
// pays no compression.
package plistore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// segTarget is the preferred encoded size of one segment — the unit of
// spill IO. Segments always cover whole clusters, so a single cluster
// larger than the target gets a segment to itself.
const segTarget = 32 << 10

// segment is one size-classed slice of a partition's compressed form.
// buf is nil once the segment has spilled; off then locates its n
// encoded bytes in the store's spill file.
type segment struct {
	buf []byte
	off int64
	n   int
}

// appendCluster delta-varint encodes one cluster: uvarint length,
// uvarint first row, then zigzag-varint deltas between consecutive
// rows. Zigzag (not plain deltas) so arbitrary — even unsorted — row
// orders round-trip losslessly; cluster order and row order are
// preserved exactly, which the byte-identical-DDL contract requires.
func appendCluster(dst []byte, cluster []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cluster)))
	prev := cluster[0]
	dst = binary.AppendUvarint(dst, uint64(prev))
	for _, row := range cluster[1:] {
		dst = binary.AppendVarint(dst, int64(row-prev))
		prev = row
	}
	return dst
}

// clusterBound is the worst-case encoded size of a cluster: 10 bytes
// per varint (length, first row, and each delta).
func clusterBound(cluster []int) int {
	return 10 * (len(cluster) + 1)
}

var errCorrupt = errors.New("plistore: corrupt compressed segment")

// decodeSegments rebuilds a partition from its segments, fetched one
// at a time by read (resident buffer or spill-file pread). All
// clusters are carved from one shared slab, mirroring pli.FromColumn's
// allocation discipline.
func decodeSegments(read func(i int) ([]byte, error), nsegs, numRows, size, nclusters int) ([][]int, []int, error) {
	slab := make([]int, size)
	clusters := make([][]int, 0, nclusters)
	off := 0
	for i := 0; i < nsegs; i++ {
		buf, err := read(i)
		if err != nil {
			return nil, nil, err
		}
		pos := 0
		for pos < len(buf) {
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 || l < 2 || off+int(l) > size {
				return nil, nil, errCorrupt
			}
			pos += n
			first, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return nil, nil, errCorrupt
			}
			pos += n
			start := off
			slab[off] = int(first)
			off++
			prev := int(first)
			for k := uint64(1); k < l; k++ {
				d, n := binary.Varint(buf[pos:])
				if n <= 0 {
					return nil, nil, errCorrupt
				}
				pos += n
				prev += int(d)
				slab[off] = prev
				off++
			}
			clusters = append(clusters, slab[start:off:off])
		}
	}
	if off != size || len(clusters) != nclusters {
		return nil, nil, errCorrupt
	}
	return clusters, slab, nil
}

// spillFile is the transient backing file for spilled segments,
// following the ingest spill pattern: created with os.CreateTemp,
// written append-only via WriteAt, read with positional ReadAt (safe
// for concurrent readers), removed on close. The file exists only
// while some partition is spilled during a run.
type spillFile struct {
	f    *os.File
	size int64
}

func newSpillFile(dir string) (*spillFile, error) {
	f, err := os.CreateTemp(dir, "pli-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("plistore: create spill file: %w", err)
	}
	return &spillFile{f: f}, nil
}

// write appends b and returns its offset. Callers serialize writes
// (the evictor runs under the store lock).
func (s *spillFile) write(b []byte) (int64, error) {
	off := s.size
	if _, err := s.f.WriteAt(b, off); err != nil {
		return 0, fmt.Errorf("plistore: spill write: %w", err)
	}
	s.size += int64(len(b))
	return off, nil
}

// readInto fills b from the given offset; safe for concurrent use.
func (s *spillFile) readInto(b []byte, off int64) error {
	if _, err := s.f.ReadAt(b, off); err != nil {
		return fmt.Errorf("plistore: spill read: %w", err)
	}
	return nil
}

// close removes the backing file; nil-safe and idempotent.
func (s *spillFile) close() {
	if s == nil || s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
	s.f = nil
}
