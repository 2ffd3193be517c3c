package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"normalize"
)

// cacheKey derives the content-hash cache key of a job: the SHA-256 of
// a canonical rendering of the input (raw CSV bytes or generator
// parameters) and every result-relevant option. Two submissions with
// the same key are guaranteed the same result — normalization is
// deterministic — so a completed run can answer both.
func cacheKey(spec *jobSpec) string {
	h := sha256.New()
	if spec.gen != "" {
		fmt.Fprintf(h, "gen\x00%s\x00%g\x00%d\x00%d\x00", spec.gen, spec.scale, spec.artists, spec.seed)
	} else {
		fmt.Fprintf(h, "csv\x00%s\x00%t\x00%d\x00", spec.name, spec.lenient, len(spec.csv))
		h.Write(spec.csv)
	}
	o := spec.opts
	hashOpts(h, o)
	return hex.EncodeToString(h.Sum(nil))
}

// deltaCacheKey derives a delta job's content key from the parent's
// resolved content key, the appended rows, and the options:
// H("delta" ‖ parentKey ‖ rows ‖ opts). The parent key already encodes
// the parent's entire input (and, for delta parents, its own ancestry),
// so the child key identifies the concatenated instance without ever
// materializing it.
func deltaCacheKey(parentKey string, csv []byte, o normalize.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "delta\x00%s\x00%d\x00", parentKey, len(csv))
	h.Write(csv)
	hashOpts(h, o)
	return hex.EncodeToString(h.Sum(nil))
}

// deltaHash is the content hash of the appended rows alone — the Delta
// leg of a lineage record.
func deltaHash(csv []byte) string {
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:])
}

func hashOpts(h io.Writer, o normalize.Options) {
	fmt.Fprintf(h, "opts\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00",
		o.Mode, o.MaxLhs, o.Workers, o.Closure, int64(o.Timeout),
		o.Budget.MaxRows, o.Budget.MaxFDs, o.Budget.MaxMemoryBytes)
}

// resultCache is a bounded LRU mapping cache keys to completed results.
// Only fully successful runs are stored (partial, cancelled, and failed
// outcomes are circumstantial — a rerun may do better). Results are
// immutable after completion, so entries are shared by reference.
//
// Entries are charged by their encoded-result size, not just counted:
// results vary over orders of magnitude (a 3-table toy schema versus a
// TPC-H instance with embedded FD covers and score memos), and the
// delta plane makes big entries common — every lineage child is a full
// result charged like any other, so a chain of appends pays for each
// link it keeps resolvable. Eviction drops the least recently used
// entry while either the entry count or the byte budget is exceeded.
type resultCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type cacheEntry struct {
	key  string
	res  *normalize.Result
	size int64
}

// newResultCache builds a cache holding at most max entries and
// maxBytes of encoded results; max <= 0 disables caching entirely,
// maxBytes <= 0 disables the byte budget (count-only bounding).
func newResultCache(max int, maxBytes int64) *resultCache {
	return &resultCache{
		max:      max,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached result for key, refreshing its recency.
func (c *resultCache) get(key string) (*normalize.Result, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a completed result charged at size, the length of its
// encoding — the bytes the job store persists, so the in-memory budget
// tracks what a rehydration would load. It evicts least recently used
// entries while the count or byte budget is exceeded. An entry larger
// than the whole byte budget is still admitted alone — rejecting it
// would make the biggest results, exactly the ones worth caching,
// uncacheable — and evicts everything else.
func (c *resultCache) put(key string, res *normalize.Result, size int64) {
	if c.max <= 0 || res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.res, e.size = res, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, size: size})
		c.bytes += size
	}
	for c.ll.Len() > 1 && (c.ll.Len() > c.max || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.size
	}
}

// Len reports the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the summed encoded size of the cached results.
func (c *resultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
