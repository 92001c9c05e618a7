// Package store is the columnar segment engine behind the statistical
// server: an immutable, column-oriented row store with per-segment sorted
// indexes and zone maps, built so a compiled predicate evaluates as index
// range scans intersected into a row bitmap instead of the row-at-a-time
// full-table sweep that capped the server at toy sizes.
//
// Layout. Rows are ingested append-only into fixed-size segments
// (DefaultSegmentSize rows, always a multiple of 64). Numeric attributes
// are contiguous []float64 per segment; categorical attributes are
// dictionary-encoded []uint32 codes against a store-wide append-only
// dictionary. When a segment fills it is sealed: a zone map (min/max) and a
// sorted permutation index are built per numeric column, a code-sorted
// posting index per categorical column, and the segment never changes
// again. The open tail stays unindexed and is evaluated by a compiled scan
// — it is at most one segment of rows.
//
// Snapshots. Because sealed segments are immutable and tail buffers are
// never recycled (sealing allocates fresh ones), a Snapshot is just the
// segment list plus the tail lengths at pin time: zero-copy, always
// consistent, and completely unaffected by concurrent ingest. The
// statistical server pins one Snapshot per query, the auditor reasons over
// the pinned version, and masked releases materialize it — audits see a
// consistent database while ingest continues.
//
// Predicates. This package holds the system's one predicate model: Op,
// Cond and Compile, which resolves a conjunction against a schema once and
// rejects unknown columns and operators, ordered operators on categorical
// columns and values of the wrong kind with a *CompileError. sdcquery's
// conditions are these types, and its reference evaluator matches dataset
// rows with Compiled.Match; the snapshot evaluators compile the same way
// and only add the dictionary codes of categorical values.
//
// Evaluation. Eval answers a conjunction of conditions with one bitmap per
// snapshot: per segment, each condition resolves to a permutation range
// (zone map for whole-segment skip/accept, else a search of the numeric
// index's cache-resident fence of every 64th sorted value and then of one
// 64-value block) that selects either its inside or — for != — its
// outside. The range fills the segment's word-aligned bitmap window from
// its smaller side: a side selecting most of the segment becomes a word
// fill with the other side's rows cleared. Conditions intersect
// word-parallel (Bitmap). Aggregates then
// run off the bitmap: COUNT is a popcount, SUM/AVG a bitmap-driven sweep
// of the column in ascending row order — the identical float64 summation
// order as the scan path, so indexed answers are byte-identical to it.
// SumBatch runs that sweep for many (bitmap, column) pairs at once,
// visiting each segment once for all of them.
// Sealed segments are partitioned into goroutine-owned shards and queries
// scatter one task per shard rather than per segment; see shard.go for the
// execution model and the determinism argument.
//
// Tiers. A store opened with a data directory (Create/Open) is durable and
// two-tiered: sealing also writes the segment — raw columns plus its
// indexes, CRC-checksummed — to disk, and under Options.MemCap decoded
// segments spill out of memory and are re-read on demand through a
// pinned-page LRU pager. Every reader goes through segment.acquire, which
// is tier-blind, so answers are byte-identical wherever the bytes live.
// Durability is manifest-based: immutable data files, atomic-rename
// commits, recovery to the last fully-validated manifest; see manifest.go
// for the file layout and tier.go for Create/Open/recovery.
package store

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"privacy3d/internal/dataset"
)

// DefaultSegmentSize is the number of rows per sealed segment. It must be a
// multiple of 64 so every segment owns a word-aligned window of the
// snapshot bitmap (parallel segment evaluation then writes disjoint words).
const DefaultSegmentSize = 8192

// dict is the store-wide string dictionary: append-only, so codes handed to
// sealed segments never change meaning and snapshot readers need no copy.
type dict struct {
	mu    sync.RWMutex
	codes map[string]uint32
	strs  []string
}

func newDict() *dict { return &dict{codes: map[string]uint32{}} }

func (d *dict) lookup(s string) (uint32, bool) {
	d.mu.RLock()
	c, ok := d.codes[s]
	d.mu.RUnlock()
	return c, ok
}

func (d *dict) intern(s string) uint32 {
	d.mu.Lock()
	c, ok := d.codes[s]
	if !ok {
		c = uint32(len(d.strs))
		d.codes[s] = c
		d.strs = append(d.strs, s)
	}
	d.mu.Unlock()
	return c
}

func (d *dict) str(c uint32) string {
	d.mu.RLock()
	s := d.strs[c]
	d.mu.RUnlock()
	return s
}

// Store is the append-only columnar engine. Ingest (Append/AppendDataset)
// is serialized on an internal mutex; Snapshot is a lock-free atomic load
// and may be called from any number of readers while ingest continues.
type Store struct {
	attrs   []dataset.Attribute
	segSize int
	dict    *dict
	tier    *tierState // tier bookkeeping; dir == "" for memory-only stores

	mu       sync.Mutex // serializes ingest, snapshot publication, and commits
	segs     []*segment // sealed, immutable; replaced (never appended in place) on seal
	tailNums [][]float64
	tailCats [][]uint32
	tailLen  int
	version  uint64 // (epoch<<32)|publish counter; bumped by publishLocked
	closed   bool

	// Durable-store state (zero for memory-only stores). epoch counts
	// Open/Create incarnations and occupies the version's high 32 bits, so
	// snapshot versions — and the answer-cache and noise keys derived from
	// them — can never collide across restarts even when a crash discarded
	// unpublished commits.
	epoch         uint64
	manifestSeq   uint64
	lockF         *os.File
	dictF         *os.File
	dictCommitted int   // dictionary entries flushed to DICT
	dictBytes     int64 // committed DICT prefix length
	dictCRC       uint32
	tailKeep      [2]string // tail files referenced by the two kept manifests

	shardState

	snap atomic.Pointer[Snapshot]
}

// New creates an empty memory-only store with the given schema.
// opts.SegmentSize ≤ 0 selects DefaultSegmentSize (other values must be
// positive multiples of 64) and opts.Shards ≤ 0 selects DefaultShards; the
// shard count is fixed for the store's lifetime, because segment→shard
// assignment is deterministic in it. The tier options only apply to
// durable stores (Create).
func New(attrs []dataset.Attribute, opts Options) (*Store, error) {
	s, err := newStore(attrs, "", opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// newStore builds a store shell (schema, shard state, tier bookkeeping,
// fresh tail) without publishing a snapshot; Create/Open finish durable
// setup before the first publish.
func newStore(attrs []dataset.Attribute, dir string, opts Options) (*Store, error) {
	segSize := opts.SegmentSize
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if segSize%64 != 0 {
		return nil, fmt.Errorf("store: segment size must be a multiple of 64, got %d", segSize)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("store: schema needs at least one attribute")
	}
	if opts.MemCap < 0 {
		return nil, fmt.Errorf("store: negative memory cap %d", opts.MemCap)
	}
	s := &Store{
		attrs:   append([]dataset.Attribute(nil), attrs...),
		segSize: segSize,
		dict:    newDict(),
	}
	s.tier = newTierState(dir, s.attrs, segSize, opts)
	s.initShards(opts.Shards, segSize)
	s.freshTail()
	return s, nil
}

// FromDatasetSharded builds a memory-only store holding a copy of d's rows
// (column-wise bulk ingest; d is not retained) with the given segment size
// and shard count (≤ 0 selects the defaults, as in New).
func FromDatasetSharded(d *dataset.Dataset, segSize, shards int) (*Store, error) {
	s, err := New(d.Attrs(), Options{SegmentSize: segSize, Shards: shards})
	if err != nil {
		return nil, err
	}
	if err := s.AppendDataset(d); err != nil {
		return nil, err
	}
	return s, nil
}

// freshTail allocates new open-segment buffers. Buffers are never reused
// after sealing — pinned snapshots keep reading the old ones.
func (s *Store) freshTail() {
	s.tailNums = make([][]float64, len(s.attrs))
	s.tailCats = make([][]uint32, len(s.attrs))
	for j, a := range s.attrs {
		if a.Kind == dataset.Numeric {
			s.tailNums[j] = make([]float64, 0, s.segSize)
		} else {
			s.tailCats[j] = make([]uint32, 0, s.segSize)
		}
	}
	s.tailLen = 0
}

// sealLocked freezes the full tail into an indexed immutable segment. A
// durable store also writes the segment's checksummed file (tmp + fsync +
// rename) before the segment becomes visible, so every sealed segment a
// manifest will ever reference is already safely on disk. The segment list
// is replaced, not appended in place, so snapshots holding the old slice
// header are unaffected.
func (s *Store) sealLocked() error {
	d := buildSegData(s.tailNums, s.tailCats)
	sg := &segment{
		base:  len(s.segs) * s.segSize,
		n:     d.n,
		ord:   len(s.segs),
		bytes: d.footprint(),
		tier:  s.tier,
	}
	if s.tier.durable() {
		name := segFileName(sg.ord)
		size, crc, err := writeBlockFile(s.tier.dir, name, segMagic, sg.base, d.n, d.nums, d.cats, d)
		if err != nil {
			return err
		}
		sg.src = &fileSource{t: s.tier, ord: sg.ord, name: name, size: size, crc: crc, decoded: sg.bytes}
	}
	sg.data.Store(d)
	s.tier.noteSealed(sg.bytes)
	segs := make([]*segment, len(s.segs)+1)
	copy(segs, s.segs)
	segs[len(s.segs)] = sg
	s.segs = segs
	s.rebuildShardsLocked()
	s.freshTail()
	return nil
}

// publishLocked installs the current state as the live snapshot and bumps
// the publish counter that becomes the snapshot's version. The counter —
// not the row count — is the version so that two publishes with equal row
// counts but different content (future delete/compact paths, dataset
// rebuilds) can never collide on answer-cache or noise keys.
func (s *Store) publishLocked() {
	s.version++
	sn := &Snapshot{
		store:   s,
		segs:    s.segs,
		byShard: s.byShard,
		version: s.version,
		tailLen: s.tailLen,
		rows:    len(s.segs)*s.segSize + s.tailLen,
	}
	sn.tailNums = make([][]float64, len(s.tailNums))
	sn.tailCats = make([][]uint32, len(s.tailCats))
	for j := range s.attrs {
		if s.tailNums[j] != nil {
			sn.tailNums[j] = s.tailNums[j][:s.tailLen]
		}
		if s.tailCats[j] != nil {
			sn.tailCats[j] = s.tailCats[j][:s.tailLen]
		}
	}
	s.snap.Store(sn)
}

// Append ingests one row; vals must match the schema like dataset.Append
// (float64 or int for numeric attributes, string for categorical ones).
func (s *Store) Append(vals ...any) error {
	if len(vals) != len(s.attrs) {
		return fmt.Errorf("store: got %d values for %d attributes", len(vals), len(s.attrs))
	}
	fs := make([]float64, len(vals))
	cs := make([]uint32, len(vals))
	for j, v := range vals {
		if s.attrs[j].Kind == dataset.Numeric {
			switch x := v.(type) {
			case float64:
				fs[j] = x
			case int:
				fs[j] = float64(x)
			default:
				return fmt.Errorf("store: attribute %q is numeric, got %T", s.attrs[j].Name, v)
			}
		} else {
			str, ok := v.(string)
			if !ok {
				return fmt.Errorf("store: attribute %q is categorical, got %T", s.attrs[j].Name, v)
			}
			cs[j] = s.dict.intern(str)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	for j, a := range s.attrs {
		if a.Kind == dataset.Numeric {
			s.tailNums[j] = append(s.tailNums[j], fs[j])
		} else {
			s.tailCats[j] = append(s.tailCats[j], cs[j])
		}
	}
	s.tailLen++
	if s.tailLen == s.segSize {
		if err := s.sealLocked(); err != nil {
			// Roll the row back so the tail stays exactly one short of a
			// seal and the caller can retry.
			for j, a := range s.attrs {
				if a.Kind == dataset.Numeric {
					s.tailNums[j] = s.tailNums[j][:len(s.tailNums[j])-1]
				} else {
					s.tailCats[j] = s.tailCats[j][:len(s.tailCats[j])-1]
				}
			}
			s.tailLen--
			return err
		}
		if err := s.commitSpillLocked(); err != nil {
			// The seal is consistent in memory but not yet durable; the
			// next successful commit (seal or Close) carries it.
			return err
		}
	}
	s.publishLocked()
	return nil
}

// commitSpillLocked commits the current sealed state of a durable store
// and re-balances the resident tier under the memory cap. A no-op for
// memory-only stores.
func (s *Store) commitSpillLocked() error {
	if !s.tier.durable() {
		return nil
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.spillLocked()
	return nil
}

// AppendDataset bulk-ingests every row of d (schema names and kinds must
// match), copying column-wise without per-value boxing. One snapshot is
// published at the end.
func (s *Store) AppendDataset(d *dataset.Dataset) error {
	if d.Cols() != len(s.attrs) {
		return fmt.Errorf("store: dataset has %d columns, store schema %d", d.Cols(), len(s.attrs))
	}
	for j, a := range s.attrs {
		da := d.Attr(j)
		if da.Name != a.Name || da.Kind != a.Kind {
			return fmt.Errorf("store: column %d is %s/%v, store schema %s/%v", j, da.Name, da.Kind, a.Name, a.Kind)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	sealed := false
	for r := 0; r < d.Rows(); {
		take := s.segSize - s.tailLen
		if rem := d.Rows() - r; take > rem {
			take = rem
		}
		for j, a := range s.attrs {
			if a.Kind == dataset.Numeric {
				s.tailNums[j] = append(s.tailNums[j], d.NumColumn(j)[r:r+take]...)
			} else {
				col := d.CatColumn(j)
				for i := r; i < r+take; i++ {
					s.tailCats[j] = append(s.tailCats[j], s.dict.intern(col[i]))
				}
			}
		}
		s.tailLen += take
		r += take
		if s.tailLen == s.segSize {
			if err := s.sealLocked(); err != nil {
				// Publish the consistent prefix (earlier seals + current
				// tail rows minus this failed block stay as a full tail).
				s.publishLocked()
				return err
			}
			sealed = true
		}
	}
	// One commit for the whole bulk ingest, not one per sealed segment.
	if sealed {
		if err := s.commitSpillLocked(); err != nil {
			s.publishLocked()
			return err
		}
	}
	s.publishLocked()
	return nil
}

// Snapshot pins the current version: an immutable view unaffected by any
// ingest that happens after the call. Lock-free.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Rows returns the current row count.
func (s *Store) Rows() int { return s.Snapshot().rows }

// Version returns the current version: a monotonic publish counter bumped
// on every snapshot publication, so it uniquely identifies the visible
// data even across publishes that leave the row count unchanged.
func (s *Store) Version() uint64 { return s.Snapshot().version }

// Attrs returns the schema. The returned slice must not be modified.
func (s *Store) Attrs() []dataset.Attribute { return s.attrs }

// SegmentSize returns the rows per sealed segment.
func (s *Store) SegmentSize() int { return s.segSize }

// Index returns the column index of the named attribute, or -1.
func (s *Store) Index(name string) int { return attrIndex(s.attrs, name) }

// Snapshot is an immutable view of the store at pin time: the sealed
// segments plus a frozen prefix of the open tail. All methods are safe for
// concurrent use and never observe later ingest.
type Snapshot struct {
	store    *Store
	segs     []*segment
	byShard  [][]*segment // shard → sealed segments, pinned at publish
	version  uint64
	tailNums [][]float64
	tailCats [][]uint32
	tailLen  int
	rows     int
}

// Rows returns the snapshot's row count.
func (s *Snapshot) Rows() int { return s.rows }

// Version identifies the snapshot: the store's publish counter at pin
// time. Answer caches and noise keys embed it so answers computed against
// one version are never served for another — including publishes that kept
// the row count unchanged.
func (s *Snapshot) Version() uint64 { return s.version }

// Attrs returns the schema.
func (s *Snapshot) Attrs() []dataset.Attribute { return s.store.attrs }

// Index returns the column index of the named attribute, or -1.
func (s *Snapshot) Index(name string) int { return s.store.Index(name) }

// compile resolves conds against the schema (Compile), then the
// categorical values against the store dictionary.
func (s *Snapshot) compile(conds []Cond) (Compiled, error) {
	cc, err := Compile(s.store.attrs, conds)
	if err != nil {
		return nil, err
	}
	for i := range cc {
		if !cc[i].numeric {
			cc[i].code, cc[i].codeOK = s.store.dict.lookup(cc[i].s)
		}
	}
	return cc, nil
}

// Count returns the number of rows set in bm (popcount).
func (s *Snapshot) Count(bm *Bitmap) int { return bm.Count() }

// Sum adds up column col over the rows of bm in ascending row order — the
// identical float64 summation order as a sequential scan, which is what
// keeps indexed SUM/AVG answers byte-identical to the scan path. It is the
// one-pair case of SumBatch and allocation-free. It panics if col is not
// numeric, mirroring dataset.NumColumn.
func (s *Snapshot) Sum(bm *Bitmap, col int) float64 {
	var sum [1]float64
	s.sumInto([]*Bitmap{bm}, []int{col}, sum[:])
	return sum[0]
}

// SumBatch returns, for every pair k, the sum of column cols[k] over the
// rows of bms[k] — each bit-identical to Sum(bms[k], cols[k]). The point is
// the tiered store: the pairs are added up in one ascending sweep over the
// segments that acquires each segment at most once for the whole batch,
// so a spilled segment is decoded once rather than once per query. Every
// bitmap must cover the snapshot's rows, as Eval's do. It panics if the
// slices differ in length or a column is not numeric.
func (s *Snapshot) SumBatch(bms []*Bitmap, cols []int) []float64 {
	if len(bms) != len(cols) {
		panic(fmt.Sprintf("store: SumBatch got %d bitmaps and %d columns", len(bms), len(cols)))
	}
	sums := make([]float64, len(bms))
	s.sumInto(bms, cols, sums)
	return sums
}

// sumInto is the one summation kernel behind Sum and SumBatch. Segments
// are visited in ascending order and, inside each, every pair adds its
// rows in ascending order into its own running float64, so pair k sees
// exactly the additions a lone Sum would make, in the same order — float
// addition is never reassociated. Zero words contribute nothing, so they
// are skipped before any bit iteration, and a segment whose window is zero
// for every pair is skipped before it is acquired: sparse selections pay
// for the rows they select, and a spilled segment nobody selects is never
// decoded. Adding zero terms in order and skipping them produce the same
// float64, so the skips cannot change a single byte of the answer.
func (s *Snapshot) sumInto(bms []*Bitmap, cols []int, sums []float64) {
	for _, col := range cols {
		if s.store.attrs[col].Kind != dataset.Numeric {
			panic(fmt.Sprintf("store: attribute %q is not numeric", s.store.attrs[col].Name))
		}
	}
	for _, sg := range s.segs {
		if !sg.anySelected(bms) {
			continue
		}
		d, release := sg.acquire()
		for k, bm := range bms {
			sums[k] = addSelected(sums[k], sg.window(bm.words), d.nums[cols[k]])
		}
		release()
	}
	if s.tailLen > 0 {
		// The tail starts on a word boundary (segment sizes are multiples
		// of 64), so its rows are the words after the last segment's window.
		base := len(s.segs) * s.store.segSize
		for k, bm := range bms {
			sums[k] = addSelected(sums[k], bm.words[base>>6:], s.tailNums[cols[k]])
		}
	}
}

// addSelected adds colv's values at the rows set in words to sum, in
// ascending row order, and returns the new running sum.
func addSelected(sum float64, words []uint64, colv []float64) float64 {
	for wi, w := range words {
		if w == 0 {
			continue
		}
		base := wi << 6
		for w != 0 {
			sum += colv[base+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return sum
}

// anySelected reports whether any of the bitmaps selects a row of the
// segment.
func (sg *segment) anySelected(bms []*Bitmap) bool {
	for _, bm := range bms {
		if anyWord(sg.window(bm.words)) {
			return true
		}
	}
	return false
}

// Float returns the numeric value at (row i, column col). It panics on a
// non-numeric column or out-of-range row, mirroring slice indexing.
func (s *Snapshot) Float(i, col int) float64 {
	if sg := i / s.store.segSize; sg < len(s.segs) {
		d, release := s.segs[sg].acquire()
		v := d.nums[col][i%s.store.segSize]
		release()
		return v
	}
	return s.tailNums[col][i-len(s.segs)*s.store.segSize]
}

// Cat returns the categorical value at (row i, column col).
func (s *Snapshot) Cat(i, col int) string {
	var code uint32
	if sg := i / s.store.segSize; sg < len(s.segs) {
		d, release := s.segs[sg].acquire()
		code = d.cats[col][i%s.store.segSize]
		release()
	} else {
		code = s.tailCats[col][i-len(s.segs)*s.store.segSize]
	}
	return s.store.dict.str(code)
}

// NumRange returns the minimum and maximum of numeric column col over the
// snapshot, skipping NaN values exactly like a plain `v < lo / v > hi`
// sweep would (+Inf, -Inf when no comparable value exists). Sealed
// segments answer straight from their zone maps — the zone map of a
// spilled segment still costs an acquire, but never a column sweep.
func (s *Snapshot) NumRange(col int) (lo, hi float64) {
	if s.store.attrs[col].Kind != dataset.Numeric {
		panic(fmt.Sprintf("store: attribute %q is not numeric", s.store.attrs[col].Name))
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, sg := range s.segs {
		d, release := sg.acquire()
		idx := &d.nidx[col]
		if len(idx.sorted) > 0 {
			if idx.min < lo {
				lo = idx.min
			}
			if idx.max > hi {
				hi = idx.max
			}
		}
		release()
	}
	colv := s.tailNums[col]
	for i := 0; i < s.tailLen; i++ {
		if colv[i] < lo {
			lo = colv[i]
		}
		if colv[i] > hi {
			hi = colv[i]
		}
	}
	return lo, hi
}

// Materialize exports the snapshot as a dataset (column-wise copy,
// dictionary codes decoded). Masked releases run off this, so /protect
// sees exactly the version pinned at request time.
func (s *Snapshot) Materialize() *dataset.Dataset {
	nums := make([][]float64, len(s.store.attrs))
	cats := make([][]string, len(s.store.attrs))
	for j, a := range s.store.attrs {
		if a.Kind == dataset.Numeric {
			nums[j] = make([]float64, 0, s.rows)
		} else {
			cats[j] = make([]string, 0, s.rows)
		}
	}
	// Segment-outer order so each spilled segment is decoded once for all
	// of its columns, not once per column.
	for _, sg := range s.segs {
		d, release := sg.acquire()
		for j, a := range s.store.attrs {
			if a.Kind == dataset.Numeric {
				nums[j] = append(nums[j], d.nums[j]...)
			} else {
				for _, code := range d.cats[j] {
					cats[j] = append(cats[j], s.store.dict.str(code))
				}
			}
		}
		release()
	}
	for j, a := range s.store.attrs {
		if a.Kind == dataset.Numeric {
			nums[j] = append(nums[j], s.tailNums[j]...)
		} else {
			for _, code := range s.tailCats[j] {
				cats[j] = append(cats[j], s.store.dict.str(code))
			}
		}
	}
	d, err := dataset.NewFromColumns(s.store.attrs, s.rows, nums, cats)
	if err != nil {
		// The snapshot's own columns always satisfy NewFromColumns'
		// invariants; a failure here is a store bug.
		panic(fmt.Sprintf("store: materialize: %v", err))
	}
	return d
}
