package analysis

import (
	"crypto/sha256"
	"encoding/binary"

	"rtsync/internal/model"
	"rtsync/internal/obs"
)

// SystemDigest is the content hash of (system, analysis, options) — the
// memoization key of a ResultCache. Two inputs with equal digests produce
// byte-identical analysis results.
type SystemDigest [sha256.Size]byte

// SystemHasher computes SystemDigests over a reused scratch buffer, so
// steady-state hashing allocates nothing. The zero value is ready to use;
// a hasher is NOT safe for concurrent use (share one per goroutine, like an
// Analyzer).
type SystemHasher struct {
	buf []byte
}

// Hash digests every semantic field of s plus the analysis name and the
// result-affecting Options fields. Human-readable labels — processor, task
// and resource names — are deliberately excluded: renaming cannot change
// any bound, so renamed systems share cache entries. Options.WarmStart is
// likewise excluded: it does nothing.
//
// The encoding is positional (counts frame every list), so no field
// separator ambiguity exists, and little-endian fixed-width, so digests are
// platform-stable.
func (h *SystemHasher) Hash(s *model.System, analysisName string, opts Options) SystemDigest {
	b := h.buf[:0]
	b = append(b, 1) // encoding version
	b = appendU64(b, uint64(len(analysisName)))
	b = append(b, analysisName...)

	b = appendU64(b, uint64(opts.FailureFactor))
	b = appendU64(b, uint64(opts.MaxFixpointIter))
	b = appendU64(b, uint64(opts.MaxOuterIter))
	b = appendU64(b, uint64(opts.MaxInstances))
	b = appendBool(b, opts.StopOnFailure)

	b = appendU64(b, uint64(len(s.Procs)))
	for i := range s.Procs {
		b = appendBool(b, s.Procs[i].Preemptive)
	}
	b = appendU64(b, uint64(len(s.Resources)))
	for i := range s.Resources {
		r := &s.Resources[i]
		b = appendBool(b, r.Global())
		b = appendU64(b, uint64(r.SyncProc))
	}
	b = appendU64(b, uint64(len(s.Tasks)))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		b = appendU64(b, uint64(t.Period))
		b = appendU64(b, uint64(t.Deadline))
		b = appendU64(b, uint64(t.Phase))
		b = appendU64(b, uint64(len(t.Subtasks)))
		for j := range t.Subtasks {
			st := &t.Subtasks[j]
			b = appendU64(b, uint64(st.Proc))
			b = appendU64(b, uint64(st.Exec))
			b = appendU64(b, uint64(st.Priority))
			b = appendU64(b, uint64(st.LocalDeadline))
			b = appendU64(b, uint64(len(st.Locks)))
			for _, r := range st.Locks {
				b = appendU64(b, uint64(r))
			}
			b = appendU64(b, uint64(len(st.Segments)))
			for _, g := range st.Segments {
				b = appendU64(b, uint64(g.Offset))
				b = appendU64(b, uint64(g.Length))
				b = appendU64(b, uint64(g.Resource))
			}
		}
	}
	h.buf = b
	return sha256.Sum256(b)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ResultCache memoizes analysis Results by SystemDigest under a fixed entry
// limit with least-recently-used displacement. Entries deep-copy the Result
// at Put, so the source Analyzer may be Reset or reused immediately; a
// pointer returned by Get stays valid — and must be treated as read-only —
// until an eviction or a Put against the same digest displaces the entry.
// Lookups on a warmed map allocate nothing. Not safe for concurrent use;
// callers serialize (rtsyncd holds its workspace lock across Get/Put).
type ResultCache struct {
	// Stats, when non-nil, receives hit/miss/eviction counts — the same
	// attach-a-bank contract as Analyzer.Stats.
	Stats *obs.AnalysisStats

	limit      int
	index      map[SystemDigest]int32
	entries    []cacheEntry
	head, tail int32 // intrusive MRU list: head most recent, tail next victim
}

type cacheEntry struct {
	digest     SystemDigest
	prev, next int32
	res        Result
}

// NewResultCache returns a cache holding at most limit entries (minimum 1).
func NewResultCache(limit int) *ResultCache {
	if limit < 1 {
		limit = 1
	}
	return &ResultCache{
		limit: limit,
		index: make(map[SystemDigest]int32, limit),
		head:  -1,
		tail:  -1,
	}
}

// Len returns the number of live entries.
func (c *ResultCache) Len() int { return len(c.entries) }

// Get returns the cached Result for d, or nil. A hit refreshes the entry's
// recency.
func (c *ResultCache) Get(d SystemDigest) *Result {
	i, ok := c.index[d]
	if !ok {
		if c.Stats != nil {
			c.Stats.NoteCacheMiss()
		}
		return nil
	}
	c.moveToFront(i)
	if c.Stats != nil {
		c.Stats.NoteCacheHit()
	}
	return &c.entries[i].res
}

// Put stores a deep copy of res under d and returns the cache-owned copy
// (valid under the same rules as a Get hit, without counting as one). The
// system s the result was computed over supplies the copy's own
// SubtaskIndex, so the entry survives the source Analyzer's next Reset.
// Putting an existing digest refreshes its recency and overwrites the
// entry in place.
func (c *ResultCache) Put(d SystemDigest, s *model.System, res *Result) *Result {
	if i, ok := c.index[d]; ok {
		c.fill(&c.entries[i], s, res)
		c.moveToFront(i)
		return &c.entries[i].res
	}
	var i int32
	if len(c.entries) < c.limit {
		i = int32(len(c.entries))
		c.entries = append(c.entries, cacheEntry{})
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.index, c.entries[i].digest)
		if c.Stats != nil {
			c.Stats.NoteCacheEviction()
		}
	}
	e := &c.entries[i]
	e.digest = d
	c.fill(e, s, res)
	c.index[d] = i
	c.pushFront(i)
	return &e.res
}

// fill deep-copies res into e, reusing e's arrays when their capacity
// suffices (a recycled eviction victim of the same shape copies with zero
// allocations).
func (c *ResultCache) fill(e *cacheEntry, s *model.System, res *Result) {
	e.res.Protocol = res.Protocol
	e.res.Iterations = res.Iterations
	if e.res.Index == nil {
		e.res.Index = model.NewSubtaskIndex(s)
	} else {
		e.res.Index.Reset(s)
	}
	e.res.Bounds = resizeBounds(e.res.Bounds, len(res.Bounds))
	copy(e.res.Bounds, res.Bounds)
	e.res.TaskEER = resizeDurations(e.res.TaskEER, len(res.TaskEER))
	copy(e.res.TaskEER, res.TaskEER)
}

func (c *ResultCache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *ResultCache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *ResultCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
