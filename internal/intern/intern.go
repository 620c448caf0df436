// Package intern provides a process-wide concurrent string interner
// for the trace ingestion path.
//
// LiLa traces are symbol-heavy: every paint call names the same few
// classes, and a study directory holds many sessions of the same
// application, so the same fully qualified class and method names
// recur millions of times. The decoders intern each string-table
// entry (v2 format) or token (text format) exactly once, after
// which every session in the process shares one backing string per
// distinct symbol — the in-memory cost of symbols becomes O(distinct
// names), not O(records), and later string comparisons in the
// analysis engine tend to short-circuit on identical data pointers.
//
// The interner is sharded to stay off the contention path when
// LoadTraceDir decodes files on a worker per core: a lookup takes one
// FNV hash and one RLock on 1/64th of the table. Hits are
// allocation-free, including for []byte keys (the compiler elides the
// string conversion in map lookups).
package intern

import "sync"

// shardCount trades map size against lock contention; 64 shards keep
// a GOMAXPROCS-sized decode pool essentially uncontended.
const shardCount = 64

type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

var shards [shardCount]shard

func init() {
	for i := range shards {
		shards[i].m = make(map[string]string)
	}
}

// fnv1a hashes b with 64-bit FNV-1a (inlined to keep Bytes
// allocation-free on the hit path).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func fnv1aString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Bytes returns the canonical interned string equal to b. A hit costs
// no allocation; a miss allocates the one string that all future
// callers will share.
func Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	sh := &shards[fnv1a(b)%shardCount]
	sh.mu.RLock()
	s, ok := sh.m[string(b)] // no alloc: map lookup elides the conversion
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	// Double-check under the write lock: a concurrent intern of the
	// same bytes must return the same backing string.
	if s, ok = sh.m[string(b)]; !ok {
		s = string(b)
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}

// String returns the canonical interned string equal to s, interning
// s itself on first sight (no copy is made: the argument becomes the
// canonical backing).
func String(s string) string {
	if s == "" {
		return ""
	}
	sh := &shards[fnv1aString(s)%shardCount]
	sh.mu.RLock()
	c, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	if c, ok = sh.m[s]; !ok {
		c = s
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return c
}

// Len reports the number of distinct strings currently interned
// (test and debugging aid; takes every shard lock).
func Len() int {
	n := 0
	for i := range shards {
		shards[i].mu.RLock()
		n += len(shards[i].m)
		shards[i].mu.RUnlock()
	}
	return n
}
