package store

import (
	"math"
	"sort"
	"sync/atomic"
)

// A segment is an immutable, fully indexed block of exactly segSize rows.
// The segment value itself is only the handle — global position, row count
// and tier state; the decoded columns and indexes live in a segData that
// the handle either holds resident (the in-memory tier) or reloads on
// demand from its SegmentSource (the spilled tier, backed by the pager and
// the on-disk segment file). Every reader goes through acquire, so the
// evaluation kernels are tier-blind. Once built, a segment's data is never
// mutated — the immutability that gives snapshots their isolation for free.
type segment struct {
	base  int   // global row index of the segment's first row
	n     int   // rows in the segment (== the store's segSize)
	ord   int   // ordinal in the sealed-segment list (names the spill file)
	bytes int64 // decoded footprint of the segData, for the memory cap

	tier *tierState
	src  SegmentSource // durable backing; nil for memory-only segments

	// data is the resident decoded form. Non-nil means the segment is in
	// the resident tier; nil means it is spilled and acquire reloads it
	// through src. Promotion and eviction flip it with CAS, so a reader
	// that loaded a non-nil pointer keeps a consistent immutable view even
	// if the segment is evicted underneath it.
	data atomic.Pointer[segData]

	// lastUse orders eviction: the tier's use clock at the last acquire.
	lastUse atomic.Int64
}

// SegmentSource is the tier read abstraction: where a sealed segment's
// bytes come from when its decoded form is not resident. The only
// implementation today is the pager-backed segment file (fileSource); the
// planner, zone-map pruning, shard scatter-gather and EvalBatch never see
// the difference because they all read columns through segment.acquire.
type SegmentSource interface {
	// Load decodes the segment into its evaluable form. The returned
	// segData is immutable and exactly what buildSegData produced at seal
	// time — byte-identical answers across tiers follow from that.
	Load() (*segData, error)
	// Name identifies the backing (the segment file name) for diagnostics.
	Name() string
}

// noopRelease is the release of a resident acquire (shared to keep the
// fast path allocation-free).
func noopRelease() {}

// acquire returns the segment's decoded data and a release that ends the
// lease. The fast path — resident data — is one atomic load. A spilled
// segment is decoded through its SegmentSource (pager-cached pages, column
// decode, index rebuild) and, when the memory cap has room, promoted back
// into the resident tier so later queries pay nothing. Decode failures
// panic: the manifest verified every committed file at Open, so a failure
// here means the file was corrupted or removed underneath a live store —
// an invariant violation, not a recoverable condition.
func (sg *segment) acquire() (*segData, func()) {
	if sg.tier != nil {
		sg.lastUse.Store(sg.tier.useClock.Add(1))
	}
	if d := sg.data.Load(); d != nil {
		return d, noopRelease
	}
	d, err := sg.src.Load()
	if err != nil {
		panic("store: segment " + sg.src.Name() + " unreadable under a live store: " + err.Error())
	}
	if sg.tier.admit(sg.bytes) {
		if sg.data.CompareAndSwap(nil, d) {
			sg.tier.noteResident(sg.bytes)
		} else {
			sg.tier.unadmit(sg.bytes)
			d = sg.data.Load() // another reader promoted first; share its copy
		}
	}
	return d, noopRelease
}

// evict drops the resident decoded form (the segment must be durably
// persisted). Returns false if the segment was already spilled. In-flight
// readers that acquired before the flip keep their immutable segData.
func (sg *segment) evict() bool {
	d := sg.data.Load()
	if d == nil || sg.src == nil {
		return false
	}
	if !sg.data.CompareAndSwap(d, nil) {
		return false
	}
	sg.tier.noteSpilled(sg.bytes)
	return true
}

// resident reports whether the decoded form is currently in memory.
func (sg *segment) resident() bool { return sg.data.Load() != nil }

// segData is the decoded, evaluable form of one sealed segment: contiguous
// columns (numeric as []float64, categorical as dictionary codes) plus the
// per-column indexes. It is immutable after buildSegData and shared freely
// across goroutines and snapshots.
type segData struct {
	n    int
	nums [][]float64
	cats [][]uint32
	nidx []numIndex
	cidx []catIndex
}

// numIndex is the per-segment index of one numeric column.
type numIndex struct {
	// min/max are the zone map over the non-NaN values; meaningless when
	// every value is NaN (perm empty).
	min, max float64
	// perm holds the segment-local rows sorted ascending by value, NaN rows
	// excluded; sorted[k] is the value at perm[k], kept as a contiguous
	// copy so range binary searches don't chase the permutation.
	perm   []uint32
	sorted []float64
	// fence[k] is sorted[64k]: the bound searches run over it first, then
	// over one 64-value block of sorted (see lower/upper). Derived from
	// sorted at build and at decode; not part of the segment file.
	fence []float64
	// nan lists the rows whose value is NaN. They fail every comparison
	// except !=, exactly as the row-at-a-time scan path treats them.
	nan []uint32
}

// catIndex is the per-segment index of one categorical column: the
// code-sorted permutation. The equal range of a code inside sorted IS that
// code's posting list (perm[lo:hi] are the rows holding it).
type catIndex struct {
	min, max uint32
	perm     []uint32
	sorted   []uint32
}

// buildSegData indexes one sealed block. nums/cats are the frozen column
// buffers, owned by the segData from here on. The build is deterministic in
// the column values alone, which is what makes a reload from disk
// indistinguishable from the original resident form.
func buildSegData(nums [][]float64, cats [][]uint32) *segData {
	d := &segData{nums: nums, cats: cats}
	for _, col := range nums {
		if col != nil {
			d.n = len(col)
			break
		}
	}
	for _, col := range cats {
		if col != nil {
			d.n = len(col)
			break
		}
	}
	d.nidx = make([]numIndex, len(nums))
	d.cidx = make([]catIndex, len(cats))
	for j, col := range nums {
		if col != nil {
			d.nidx[j] = buildNumIndex(col)
		}
	}
	for j, col := range cats {
		if col != nil {
			d.cidx[j] = buildCatIndex(col)
		}
	}
	return d
}

// footprint estimates the decoded byte size of the segData (columns plus
// indexes) for the resident-tier memory accounting. The numeric fences are
// left out: each is at most 1/64 of its sorted copy, and counting them
// would change the Decoded sizes a manifest records and what fits under a
// memory cap for data directories written before the fences existed.
func (d *segData) footprint() int64 {
	var b int64
	for _, col := range d.nums {
		b += int64(len(col)) * 8
	}
	for _, col := range d.cats {
		b += int64(len(col)) * 4
	}
	for _, idx := range d.nidx {
		b += int64(len(idx.perm))*4 + int64(len(idx.sorted))*8 + int64(len(idx.nan))*4
	}
	for _, idx := range d.cidx {
		b += int64(len(idx.perm))*4 + int64(len(idx.sorted))*4
	}
	return b
}

func buildNumIndex(col []float64) numIndex {
	idx := numIndex{}
	idx.perm = make([]uint32, 0, len(col))
	for i, v := range col {
		if math.IsNaN(v) {
			idx.nan = append(idx.nan, uint32(i))
		} else {
			idx.perm = append(idx.perm, uint32(i))
		}
	}
	sort.Slice(idx.perm, func(a, b int) bool {
		va, vb := col[idx.perm[a]], col[idx.perm[b]]
		if va != vb {
			return va < vb
		}
		// Equal values stay in row order so posting ranges are ascending.
		return idx.perm[a] < idx.perm[b]
	})
	idx.sorted = make([]float64, len(idx.perm))
	for k, r := range idx.perm {
		idx.sorted[k] = col[r]
	}
	idx.fence = buildFence(idx.sorted)
	if len(idx.sorted) > 0 {
		idx.min, idx.max = idx.sorted[0], idx.sorted[len(idx.sorted)-1]
	}
	return idx
}

func buildCatIndex(col []uint32) catIndex {
	idx := catIndex{perm: make([]uint32, len(col))}
	for i := range col {
		idx.perm[i] = uint32(i)
	}
	sort.Slice(idx.perm, func(a, b int) bool {
		ca, cb := col[idx.perm[a]], col[idx.perm[b]]
		if ca != cb {
			return ca < cb
		}
		return idx.perm[a] < idx.perm[b]
	})
	idx.sorted = make([]uint32, len(col))
	for k, r := range idx.perm {
		idx.sorted[k] = col[r]
	}
	if len(idx.sorted) > 0 {
		idx.min, idx.max = idx.sorted[0], idx.sorted[len(idx.sorted)-1]
	}
	return idx
}

// eval evaluates a planned conjunction over the segment into words, the
// segment's word-aligned window of the snapshot bitmap (len n/64). scratch
// is a caller-owned window of the same length. The result is exactly the
// rows a row-at-a-time scan would match.
func (d *segData) eval(p *plan, words, scratch []uint64) {
	first := true
	for i := range p.ivs {
		if !d.step(&first, words, scratch, func(out []uint64) { d.evalInterval(&p.ivs[i], out) }) {
			return
		}
	}
	for i := range p.rest {
		if !d.step(&first, words, scratch, func(out []uint64) { d.evalCond(p.rest[i], out) }) {
			return
		}
	}
	if first {
		setAllWords(words)
	}
}

// step runs one conjunct: the first fills words directly, later ones fill
// scratch and intersect. Returns false once the conjunction is empty, so
// remaining indexes are skipped.
func (d *segData) step(first *bool, words, scratch []uint64, fill func([]uint64)) bool {
	if *first {
		fill(words)
		*first = false
		return anyWord(words)
	}
	zeroWords(scratch)
	fill(scratch)
	andWords(words, scratch)
	return anyWord(words)
}

// evalInterval fills out with the rows inside one merged interval — a
// single contiguous range of the sorted permutation found by two fenced
// searches, however many range conditions produced it. NaN rows are not in
// perm, so they fail the interval exactly as they fail every ordered
// comparison in the scan path.
func (d *segData) evalInterval(iv *numInterval, out []uint64) {
	idx := &d.nidx[iv.col]
	if len(idx.sorted) == 0 {
		return // every value NaN; NaN fails every interval
	}
	// Zone-map skip: the interval is disjoint from [min,max], so no row can
	// match — the whole segment is skipped without touching the sorted index.
	if iv.lo > idx.max || (iv.lo == idx.max && !iv.loIncl) ||
		iv.hi < idx.min || (iv.hi == idx.min && !iv.hiIncl) {
		return
	}
	// Zone-map accept: [min,max] lies inside the interval and the segment has
	// no NaN rows, so every row matches — one word fill, no binary searches.
	if len(idx.perm) == d.n &&
		(iv.lo < idx.min || (iv.lo == idx.min && iv.loIncl)) &&
		(iv.hi > idx.max || (iv.hi == idx.max && iv.hiIncl)) {
		setAllSegment(out, d.n)
		return
	}
	var lo, hi int
	if iv.loIncl {
		lo = idx.lower(iv.lo, 0)
	} else {
		lo = idx.upper(iv.lo, 0)
	}
	// The interval is not vacuous, so its upper bound lies at or after lo.
	if iv.hiIncl {
		hi = idx.upper(iv.hi, lo)
	} else {
		hi = idx.lower(iv.hi, lo)
	}
	fillRange(out, d.n, idx.perm, idx.nan, lo, hi, true)
}

// evalCond fills out (assumed zero) with the rows matching one residual
// condition, via the column's index — never a row sweep.
func (d *segData) evalCond(c compiledCond, out []uint64) {
	if c.numeric {
		d.evalNum(c, out)
	} else {
		d.evalCat(c, out)
	}
}

// evalNum answers a numeric !=, the only numeric operator planConds leaves
// in the residual list (every ordered or equality condition merges into an
// interval). Every row matches except the equal range, NaN rows included:
// NaN != v, and v != NaN holds for every row.
func (d *segData) evalNum(c compiledCond, out []uint64) {
	idx := &d.nidx[c.col]
	if math.IsNaN(c.v) || len(idx.sorted) == 0 || c.v < idx.min || c.v > idx.max {
		setAllSegment(out, d.n) // zone-map accept: no row holds v
		return
	}
	lo := idx.lower(c.v, 0)
	fillRange(out, d.n, idx.perm, idx.nan, lo, idx.upper(c.v, lo), false)
}

// evalCat answers a categorical = or != from the code-sorted posting
// index: the code's equal range, selected or excluded.
func (d *segData) evalCat(c compiledCond, out []uint64) {
	idx := &d.cidx[c.col]
	if !c.codeOK || len(idx.sorted) == 0 || c.code < idx.min || c.code > idx.max {
		// Value absent from the dictionary or outside the zone: = matches
		// nothing, != everything.
		if c.op == Ne {
			setAllSegment(out, d.n)
		}
		return
	}
	lo := lowerBound(idx.sorted, c.code)
	hi := lo + upperBound(idx.sorted[lo:], c.code)
	fillRange(out, d.n, idx.perm, nil, lo, hi, c.op == Eq)
}

// fillRange writes out (assumed zero) for one index-path conjunct. The
// segment's rows split into the inside of the permutation range, perm[lo:hi],
// and the outside: perm[:lo], perm[hi:] and the rows in nan, which are not
// in perm. keepInside selects the inside; otherwise the outside is selected.
// Either way only the smaller side is walked: when the selected side is
// the larger one, the whole segment is set and the other side cleared.
// The bits are the same — the walk costs min(inside, outside) rows instead
// of the selected side's, which for a majority value is most of the segment.
func fillRange(out []uint64, n int, perm, nan []uint32, lo, hi int, keepInside bool) {
	insideSmall := 2*(hi-lo) <= n
	if insideSmall != keepInside {
		setAllSegment(out, n)
	}
	if insideSmall {
		walkRows(out, perm[lo:hi], keepInside)
		return
	}
	walkRows(out, perm[:lo], !keepInside)
	walkRows(out, perm[hi:], !keepInside)
	walkRows(out, nan, !keepInside)
}

// walkRows sets (set) or clears (!set) every row in rows.
func walkRows(out []uint64, rows []uint32, set bool) {
	if set {
		for _, r := range rows {
			setBit(out, r)
		}
		return
	}
	for _, r := range rows {
		clearBit(out, r)
	}
}

// setAllSegment fills the window's first n bits (n is a multiple of 64 for
// sealed segments, so this is a plain word fill).
func setAllSegment(out []uint64, n int) {
	full := n >> 6
	setAllWords(out[:full])
	if r := uint(n) & 63; r != 0 {
		out[full] |= (1 << r) - 1
	}
}

// fenceShift sets the fence stride of a numeric index: fence[k] is
// sorted[k<<fenceShift]. A 64-value block of sorted is 512 bytes, and an
// 8192-row segment's fence is 128 entries (1 KiB) that stay cache-resident
// across queries, where a plain binary search would make 13 probes over
// the cold 64 KiB sorted array.
const fenceShift = 6

// buildFence samples every 64th value of sorted.
func buildFence(sorted []float64) []float64 {
	fence := make([]float64, (len(sorted)+1<<fenceShift-1)>>fenceShift)
	for k := range fence {
		fence[k] = sorted[k<<fenceShift]
	}
	return fence
}

// lower returns the first k with sorted[k] >= v. The caller guarantees the
// answer is at least from, so the search starts there.
func (idx *numIndex) lower(v float64, from int) int {
	f := (from + 1<<fenceShift - 1) >> fenceShift
	lo, hi := idx.block(f+lowerBound(idx.fence[f:], v), from)
	return lo + lowerBound(idx.sorted[lo:hi], v)
}

// upper returns the first k with sorted[k] > v, the answer being at least
// from.
func (idx *numIndex) upper(v float64, from int) int {
	f := (from + 1<<fenceShift - 1) >> fenceShift
	lo, hi := idx.block(f+upperBound(idx.fence[f:], v), from)
	return lo + upperBound(idx.sorted[lo:hi], v)
}

// block narrows a bound search to one block of sorted. k is the first
// fence entry satisfying the bound's predicate (len(fence) if none does):
// the predicate holds at sorted[k·64] and fails at sorted[(k-1)·64], so the
// answer lies in ((k-1)·64, k·64] ∩ [from, len(sorted)], and the returned
// [lo, hi) holds it unless it is hi itself. Since the answer is at least
// from, k is at least ceil(from/64), where the callers start the fence
// search.
func (idx *numIndex) block(k, from int) (lo, hi int) {
	if k == 0 {
		return 0, 0
	}
	lo = max((k-1)<<fenceShift+1, from)
	hi = min(k<<fenceShift, len(idx.sorted))
	return lo, hi
}

// lowerBound returns the first index with s[i] >= v.
func lowerBound[T float64 | uint32](s []T, v T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] >= v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// upperBound returns the first index with s[i] > v.
func upperBound[T float64 | uint32](s []T, v T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] > v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
