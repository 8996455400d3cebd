package service

import "p2go/internal/cache"

// Cache is the daemon's artifact store. It lives in internal/cache, below
// the optimizer core, so core.AnalysisCache can be a typed view over the
// same store the job and fleet-device artifacts live in.
type Cache = cache.Cache

// NewCache creates the store; see cache.NewCache.
func NewCache(maxEntries int, dir string) *Cache { return cache.NewCache(maxEntries, dir) }
