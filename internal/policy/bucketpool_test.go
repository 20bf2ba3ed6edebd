package policy

import (
	"testing"
	"time"
)

// TestBucketPoolMatchesDirectAllocation proves pooled buckets behave exactly
// like individually allocated ones across the full bucket lifecycle.
func TestBucketPoolMatchesDirectAllocation(t *testing.T) {
	pool := NewBucketPool(2, 4)
	for i := 0; i < 3*bucketPoolChunk; i++ {
		pooled := pool.Get()
		direct := &TokenBucket{Rate: 2, Burst: 4}
		for step := 0; step < 8; step++ {
			now := at(time.Duration(step) * time.Second)
			if got, want := pooled.Allow(now), direct.Allow(now); got != want {
				t.Fatalf("bucket %d step %d: pooled Allow=%v, direct=%v", i, step, got, want)
			}
			pooled.refill(now)
			direct.refill(now)
			if got, want := pooled.tokens, direct.tokens; got != want {
				t.Fatalf("bucket %d step %d: pooled Tokens=%v, direct=%v", i, step, got, want)
			}
		}
	}
}

// TestBucketPoolBucketsAreIndependent checks draining one pooled bucket
// leaves its chunk neighbors untouched.
func TestBucketPoolBucketsAreIndependent(t *testing.T) {
	pool := NewBucketPool(0, 2)
	a, b := pool.Get(), pool.Get()
	now := at(0)
	a.Allow(now)
	a.Allow(now)
	if a.Allow(now) {
		t.Fatal("bucket a should be empty")
	}
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("bucket b lost tokens it never spent")
	}
}

func BenchmarkTokenBucketDirect(b *testing.B) {
	var sink *TokenBucket
	for i := 0; i < b.N; i++ {
		sink = &TokenBucket{Rate: 100, Burst: 50}
	}
	_ = sink
}

func BenchmarkTokenBucketPooled(b *testing.B) {
	pool := NewBucketPool(100, 50)
	var sink *TokenBucket
	for i := 0; i < b.N; i++ {
		sink = pool.Get()
	}
	_ = sink
}
