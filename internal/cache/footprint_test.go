package cache

import (
	"testing"
	"unsafe"

	"rmq/internal/plan"
)

// TestCacheFootprint pins the fixed memory cost of the cache's per-set
// and per-plan structs. Every table set ever touched keeps a Bucket in
// each private cache and a sharedBucket in the session store, and every
// cached plan is a plan.Plan, so these sizes multiply by the store's
// set and plan counts (hundreds of thousands at serving scale). The
// bounds sit at Go allocator size-class edges: a field that pushes a
// struct past one moves every instance into the next class. Such a
// field belongs in the lazily allocated bucketIndex, or in a padding
// hole of the existing layout.
func TestCacheFootprint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  uintptr
		limit uintptr
		per   string
	}{
		{"cache.Bucket", unsafe.Sizeof(Bucket{}), 320, "table set in every private cache"},
		{"cache.sharedBucket", unsafe.Sizeof(sharedBucket{}), 352, "table set in the shared store"},
		{"plan.Plan", unsafe.Sizeof(plan.Plan{}), 96, "cached plan"},
	} {
		if tc.size > tc.limit {
			t.Errorf("%s is %d bytes, over its %d-byte budget: that is the memory cost per %s",
				tc.name, tc.size, tc.limit, tc.per)
		}
	}
}
