// Package solstore is a shared, sharded, size-bounded solution store
// with single-flight deduplication: the cache architecture the repo's
// scale story hangs on (the 200×3 DSE sweep is 38m23s cold vs 17ms
// warm — caching, not raw solving, is what makes repeated evaluation
// cheap).
//
// The store maps canonical fingerprints (region-solve keys, whole-sweep
// outcome keys) to arbitrary immutable values. It is safe for heavy
// concurrent use:
//
//   - keys are distributed over 2^k shards by FNV-1a hash, so unrelated
//     solves never contend on one lock;
//   - each shard is an LRU over its own entries with a per-shard
//     capacity, so the store is size-bounded and eviction in one shard
//     never touches another;
//   - GetOrCompute collapses concurrent computations of the same key
//     into one ("single flight"): the first caller computes, everyone
//     else blocks on that computation and shares its value. This is
//     what keeps a parallel region sweep from solving the same ILP
//     twice just because two workers reached identical subproblems at
//     the same moment.
//
// Hit/miss/dedup/eviction counters and per-shard entry gauges flow into
// an optional obs.Registry under solstore.*, so the CLIs' -stats views
// and the DSE reports can show store effectiveness.
package solstore

import (
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Capacity bounds the total number of entries across all shards
	// (rounded up to a multiple of the shard count). Non-positive
	// selects DefaultCapacity.
	Capacity int
	// Shards is the number of independent LRU shards; rounded up to a
	// power of two. Non-positive selects DefaultShards.
	Shards int
	// Metrics, when non-nil, receives solstore.* counters and per-shard
	// entry gauges.
	Metrics *obs.Registry
	// Events, when non-nil, receives structured store events: one
	// "store-eviction" per LRU eviction (with the evicted key) and one
	// "worker-stall" per GetOrCompute call that blocked on another
	// caller's in-flight computation.
	Events *obs.EventLog
}

// Defaults for Options.
const (
	DefaultCapacity = 4096
	DefaultShards   = 8
)

// Store is the sharded LRU + single-flight store. The zero value is not
// usable; construct with New. All methods are safe for concurrent use
// and safe on a nil *Store (Get misses, Put drops, GetOrCompute
// computes every time), so call sites need no enabled/disabled branch.
type Store struct {
	shards []*shard
	mask   uint32

	hits      *obs.Counter
	misses    *obs.Counter
	dedups    *obs.Counter
	evictions *obs.Counter
	events    *obs.EventLog
}

// entry is one cached value on a shard's LRU list.
type entry struct {
	key        string
	val        any
	prev, next *entry // most-recently-used list; head = hottest
}

// call is one in-flight computation other callers can wait on.
type call struct {
	done chan struct{}
	val  any
	// panicked marks a computation whose fn panicked: it stored nothing,
	// and its waiters panic too instead of reading a value.
	panicked bool
}

// shard is one LRU with its own lock and in-flight table.
type shard struct {
	mu       sync.Mutex
	cap      int
	items    map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	inflight map[string]*call

	evictions int64
	// trackEvicted records evicted keys for event emission; off when the
	// store has no event sink so eviction stays allocation-free.
	trackEvicted bool
	evictedKeys  []string
	entries      *obs.Gauge
}

// New creates a store. A nil metrics registry disables telemetry.
func New(opts Options) *Store {
	capTotal := opts.Capacity
	if capTotal <= 0 {
		capTotal = DefaultCapacity
	}
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round the shard count up to a power of two for mask indexing.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	n = pow
	perShard := (capTotal + n - 1) / n
	// Without a registry, back the counters with standalone instances so
	// Stats() still reads live values (Registry.Counter on nil returns a
	// nil no-op counter, which would freeze Stats at zero).
	counter := func(name string) *obs.Counter {
		if c := opts.Metrics.Counter(name); c != nil {
			return c
		}
		return &obs.Counter{}
	}
	s := &Store{
		shards:    make([]*shard, n),
		mask:      uint32(n - 1),
		hits:      counter("solstore.hits"),
		misses:    counter("solstore.misses"),
		dedups:    counter("solstore.dedups"),
		evictions: counter("solstore.evictions"),
		events:    opts.Events,
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			cap:          perShard,
			items:        map[string]*entry{},
			inflight:     map[string]*call{},
			trackEvicted: opts.Events != nil,
			entries:      opts.Metrics.Gauge(shardGaugeName(i)),
		}
	}
	return s
}

// shardGaugeName names the per-shard entry gauge.
func shardGaugeName(i int) string {
	return "solstore.shard." + twoDigits(i) + ".entries"
}

// twoDigits formats small shard indices without fmt (hot path free of
// allocations; shard counts are tiny).
func twoDigits(i int) string {
	if i < 10 {
		return string([]byte{'0', byte('0' + i)})
	}
	if i < 100 {
		return string([]byte{byte('0' + i/10), byte('0' + i%10)})
	}
	return string([]byte{byte('0' + i/100), byte('0' + (i/10)%10), byte('0' + i%10)})
}

// shardFor picks the shard of a key.
func (s *Store) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()&s.mask]
}

// Get returns the cached value for key, marking it most recently used.
func (s *Store) Get(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.items[key]
	var val any
	if ok {
		sh.moveToFront(e)
		val = e.val // read under the lock: put may update e.val in place
	}
	sh.mu.Unlock()
	if ok {
		s.hits.Inc()
		return val, true
	}
	s.misses.Inc()
	return nil, false
}

// Put stores val under key (refreshing recency when the key exists),
// evicting least-recently-used entries past the shard capacity.
func (s *Store) Put(key string, val any) {
	if s == nil {
		return
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.put(key, val)
	sh.mu.Unlock()
	s.noteEvictions(sh)
}

// GetOrCompute returns the value for key, computing it with fn on a
// miss. Concurrent callers with the same key wait for the first
// caller's fn instead of recomputing ("single flight"); its value is
// stored and shared. fn runs without any store lock held, so it may
// itself use the store (under a different key). The second return
// reports whether the value came from cache or an in-flight
// computation rather than this caller's own fn. A panic in fn stores
// nothing and propagates to the caller and to every waiter, so the
// next caller recomputes instead of blocking on a dead computation.
func (s *Store) GetOrCompute(key string, fn func() any) (any, bool) {
	if s == nil {
		return fn(), false
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.items[key]; ok {
		sh.moveToFront(e)
		val := e.val // read under the lock: put may update e.val in place
		sh.mu.Unlock()
		s.hits.Inc()
		return val, true
	}
	if c, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		s.dedups.Inc()
		var start time.Time
		if s.events != nil {
			start = time.Now() //repolint:allow timenow (telemetry only, never solver-visible)
		}
		<-c.done
		if s.events != nil {
			s.events.Emit("worker-stall", key, map[string]any{
				"wait_ms": float64(time.Since(start).Nanoseconds()) / 1e6, //repolint:allow timenow
			})
		}
		if c.panicked {
			panic("solstore: the computation of " + key + " panicked")
		}
		return c.val, true
	}
	c := &call{done: make(chan struct{})}
	sh.inflight[key] = c
	sh.mu.Unlock()
	s.misses.Inc()

	finished := false
	defer func() {
		if finished {
			return
		}
		sh.mu.Lock()
		delete(sh.inflight, key)
		sh.mu.Unlock()
		c.panicked = true
		close(c.done)
	}()
	c.val = fn()
	finished = true
	sh.mu.Lock()
	sh.put(key, c.val)
	delete(sh.inflight, key)
	sh.mu.Unlock()
	close(c.done)
	s.noteEvictions(sh)
	return c.val, false
}

// noteEvictions forwards a shard's eviction delta to the global counter
// and emits one "store-eviction" event per evicted key. Events are
// emitted after the shard lock is released so a slow event sink never
// blocks other store traffic.
func (s *Store) noteEvictions(sh *shard) {
	sh.mu.Lock()
	n := sh.evictions
	sh.evictions = 0
	keys := sh.evictedKeys
	sh.evictedKeys = nil
	sh.mu.Unlock()
	if n > 0 {
		s.evictions.Add(n)
	}
	for _, k := range keys {
		s.events.Emit("store-eviction", k, nil)
	}
}

// put inserts or refreshes an entry; caller holds sh.mu.
func (sh *shard) put(key string, val any) {
	if e, ok := sh.items[key]; ok {
		e.val = val
		sh.moveToFront(e)
		return
	}
	e := &entry{key: key, val: val}
	sh.items[key] = e
	sh.pushFront(e)
	for len(sh.items) > sh.cap {
		lru := sh.tail
		sh.unlink(lru)
		delete(sh.items, lru.key)
		sh.evictions++
		if sh.trackEvicted {
			sh.evictedKeys = append(sh.evictedKeys, lru.key)
		}
	}
	sh.entries.Set(float64(len(sh.items)))
}

// pushFront links e as the most recently used entry; caller holds sh.mu.
func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes e from the recency list; caller holds sh.mu.
func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's recency; caller holds sh.mu.
func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// Len returns the total number of cached entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the store's effectiveness.
type Stats struct {
	// Hits and Misses count Get/GetOrCompute lookups; Dedups the
	// GetOrCompute calls that joined another caller's in-flight
	// computation instead of running their own.
	Hits, Misses, Dedups int64
	// Evictions counts LRU evictions; Entries the live entries.
	Evictions int64
	Entries   int
	// Shards is the shard count; ShardEntries the per-shard live entry
	// counts in shard order.
	Shards       int
	ShardEntries []int
}

// Stats snapshots the counters. On a store built without a metrics
// registry the counters are nil and read as zero except Entries, which
// is always live.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Dedups:    s.dedups.Value(),
		Evictions: s.evictions.Value(),
		Shards:    len(s.shards),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.items)
		sh.mu.Unlock()
		st.Entries += n
		st.ShardEntries = append(st.ShardEntries, n)
	}
	return st
}

// HitRate returns Hits/(Hits+Misses), 0 when empty.
func (st Stats) HitRate() float64 {
	n := st.Hits + st.Misses
	if n == 0 {
		return 0
	}
	return float64(st.Hits) / float64(n)
}
