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
// bounds sit at Go allocator size-class edges (288 and 96 are classes;
// a sharedBucket is a Bucket plus its lock, epoch mirror and version):
// a field that pushes a struct past one moves every instance into the
// next class. A new field must fit a padding hole of the existing
// layout, or live out of line where only the sets that need it pay.
func TestCacheFootprint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  uintptr
		limit uintptr
		per   string
	}{
		{"cache.Bucket", unsafe.Sizeof(Bucket{}), 288, "table set in every private cache"},
		{"cache.sharedBucket", unsafe.Sizeof(sharedBucket{}), 320, "table set in the shared store"},
		{"plan.Plan", unsafe.Sizeof(plan.Plan{}), 96, "cached plan"},
	} {
		if tc.size > tc.limit {
			t.Errorf("%s is %d bytes, over its %d-byte budget: that is the memory cost per %s",
				tc.name, tc.size, tc.limit, tc.per)
		}
	}
}
