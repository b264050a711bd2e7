package dse

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
)

func TestCacheKeySensitivity(t *testing.T) {
	pf := platform.ConfigA()
	cfg := core.Config{}
	base := CacheKey("abcd", pf, 0, cfg)
	if len(base) != 32 {
		t.Fatalf("key length = %d, want 32 hex chars", len(base))
	}
	if CacheKey("abcd", pf, 0, cfg) != base {
		t.Errorf("key not stable across calls")
	}
	if CacheKey("ffff", pf, 0, cfg) == base {
		t.Errorf("HTG hash does not affect key")
	}
	if CacheKey("abcd", pf, 1, cfg) == base {
		t.Errorf("main class does not affect key")
	}
	other := platform.ConfigB()
	if CacheKey("abcd", other, 0, cfg) == base {
		t.Errorf("platform does not affect key")
	}
	cfg2 := core.Config{MaxILPNodes: 150, ILPWorkBudget: 1_000_000}
	if CacheKey("abcd", pf, 0, cfg2) == base {
		t.Errorf("config does not affect key")
	}
	// Zero config and explicit defaults share a key (Fingerprint resolves
	// defaults first).
	if CacheKey("abcd", pf, 0, core.Config{Tracer: obs.NewTracer()}) != base {
		t.Errorf("observability wiring leaked into the cache key")
	}
}

func TestCacheMemoryRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache("", reg)
	key := "deadbeef"
	if _, ok := c.Get(key); ok {
		t.Fatalf("empty cache reported a hit")
	}
	want := Outcome{Speedup: 2.5, EstimatedSpeedup: 2.75, NumTasks: 7, GASpeedup: 2.1, GAGapPct: 23.6}
	if err := c.Put(key, want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok := c.Get(key)
	if !ok || got != want {
		t.Fatalf("get = %+v ok=%v, want %+v", got, ok, want)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", got)
	}
	if v := reg.Counter("dse.cache.hits").Value(); v != 1 {
		t.Errorf("obs hit counter = %d, want 1", v)
	}
	if v := reg.Counter("dse.cache.misses").Value(); v != 1 {
		t.Errorf("obs miss counter = %d, want 1", v)
	}
}

func TestCacheDiskWarmStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	want := Outcome{Speedup: 3.25, MakespanNs: 1234.5, EnergyUJ: 9.875, NumILPs: 3}

	first := NewCache(dir, nil)
	if err := first.Put("cafe0123", want); err != nil {
		t.Fatalf("put: %v", err)
	}

	// A fresh cache over the same directory — a second process — starts
	// warm.
	second := NewCache(dir, nil)
	got, ok := second.Get("cafe0123")
	if !ok {
		t.Fatalf("disk-backed entry not found on warm start")
	}
	if got != want {
		t.Fatalf("disk round-trip changed outcome: %+v != %+v", got, want)
	}
	// The entry was promoted to memory: a second Get hits without disk.
	if _, ok := second.Get("cafe0123"); !ok {
		t.Fatalf("promoted entry lost")
	}
	if hits, misses := second.Stats(); hits != 2 || misses != 0 {
		t.Errorf("warm stats = %d hits / %d misses, want 2/0", hits, misses)
	}
}

func TestCacheNilSafety(t *testing.T) {
	// nil metrics registry must not panic (obs registries are nil-safe).
	c := NewCache("", nil)
	c.Get("k")
	if err := c.Put("k", Outcome{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	c.Get("k")
}
