package ec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check field behaviour over all nonzero elements.
	for a := 1; a < 256; a++ {
		ab := byte(a)
		if gfMul(ab, gfInv(ab)) != 1 {
			t.Fatalf("a * a^-1 != 1 for %d", a)
		}
		if gfMul(ab, 1) != ab {
			t.Fatalf("a*1 != a for %d", a)
		}
		if gfMul(ab, 0) != 0 {
			t.Fatalf("a*0 != 0 for %d", a)
		}
	}
	// The exp table agrees with repeated multiplication of the generator.
	acc := byte(1)
	for n := 0; n < 300; n++ {
		if gfExp[n%255] != acc {
			t.Fatalf("g^%d = %d, want %d", n, gfExp[n%255], acc)
		}
		acc = gfMul(acc, 2)
	}
	// Distributivity on a sample grid.
	for a := 0; a < 256; a += 17 {
		for b := 0; b < 256; b += 13 {
			for c := 0; c < 256; c += 29 {
				left := gfMul(byte(a), byte(b)^byte(c))
				right := gfMul(byte(a), byte(b)) ^ gfMul(byte(a), byte(c))
				if left != right {
					t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 3}, {3, 0}, {200, 60}, {-1, 2}} {
		if _, err := New(bad[0], bad[1]); err == nil {
			t.Fatalf("New(%d,%d) accepted", bad[0], bad[1])
		}
	}
	if _, err := New(10, 4); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeReconstructAllSingleLosses(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox jumps over the lazy cold-storage disk")
	shards := c.Split(data)
	parity, err := c.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte(nil), shards...), parity...)
	for lose := 0; lose < len(all); lose++ {
		test := make([][]byte, len(all))
		for i := range all {
			if i != lose {
				test[i] = append([]byte(nil), all[i]...)
			}
		}
		if err := c.Reconstruct(test); err != nil {
			t.Fatalf("losing shard %d: %v", lose, err)
		}
		got, err := c.Join(test[:c.K()], len(data))
		if err != nil {
			t.Fatalf("join after losing %d: %v", lose, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("data corrupted after losing shard %d", lose)
		}
		// Reconstructed parity matches the original too.
		for i := range all {
			if !bytes.Equal(test[i], all[i]) {
				t.Fatalf("shard %d reconstructed differently after losing %d", i, lose)
			}
		}
	}
}

func TestAllDoubleLosses(t *testing.T) {
	c, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3000)
	rng := rand.New(rand.NewSource(5))
	rng.Read(data)
	shards := c.Split(data)
	parity, _ := c.Encode(shards)
	all := append(append([][]byte(nil), shards...), parity...)
	n := len(all)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			test := make([][]byte, n)
			for i := range all {
				if i != a && i != b {
					test[i] = all[i]
				}
			}
			if err := c.Reconstruct(test); err != nil {
				t.Fatalf("losing %d,%d: %v", a, b, err)
			}
			got, _ := c.Join(test[:c.K()], len(data))
			if !bytes.Equal(got, data) {
				t.Fatalf("corrupted after losing %d,%d", a, b)
			}
		}
	}
}

func TestTooManyLossesRefused(t *testing.T) {
	c, _ := New(4, 2)
	data := make([]byte, 100)
	shards := c.Split(data)
	parity, _ := c.Encode(shards)
	all := append(shards, parity...)
	test := make([][]byte, len(all))
	for i := 3; i < len(all); i++ {
		test[i] = all[i] // only 3 survivors of k=4
	}
	if err := c.Reconstruct(test); err == nil {
		t.Fatal("reconstructed from fewer than k shards")
	}
}

func TestShardSizeMismatch(t *testing.T) {
	c, _ := New(3, 2)
	bad := [][]byte{make([]byte, 10), make([]byte, 11), make([]byte, 10)}
	if _, err := c.Encode(bad); err == nil {
		t.Fatal("mismatched shard sizes accepted")
	}
}

func TestSplitJoinRoundTripOddSizes(t *testing.T) {
	c, _ := New(5, 2)
	for _, n := range []int{0, 1, 4, 5, 6, 99, 1000, 4096} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		shards := c.Split(data)
		if len(shards) != 5 {
			t.Fatalf("split produced %d shards", len(shards))
		}
		got, err := c.Join(shards, n)
		if err != nil {
			t.Fatalf("join(%d): %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip failed at %d bytes", n)
		}
	}
}

// Property: for random (k, m), random data, and a random loss pattern of at
// most m shards, reconstruction restores the exact data.
func TestPropertyReconstructAnyMLosses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		c, err := New(k, m)
		if err != nil {
			return false
		}
		data := make([]byte, 1+rng.Intn(2000))
		rng.Read(data)
		shards := c.Split(data)
		parity, err := c.Encode(shards)
		if err != nil {
			return false
		}
		all := append(append([][]byte(nil), shards...), parity...)
		// Lose up to m random shards.
		losses := rng.Perm(k + m)[:rng.Intn(m+1)]
		test := make([][]byte, k+m)
		lost := map[int]bool{}
		for _, l := range losses {
			lost[l] = true
		}
		for i := range all {
			if !lost[i] {
				test[i] = append([]byte(nil), all[i]...)
			}
		}
		if err := c.Reconstruct(test); err != nil {
			return false
		}
		got, err := c.Join(test[:k], len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode4x2(b *testing.B) {
	c, _ := New(4, 2)
	data := make([]byte, 4<<20)
	shards := c.Split(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructOneLoss(b *testing.B) {
	c, _ := New(4, 2)
	data := make([]byte, 4<<20)
	shards := c.Split(data)
	parity, _ := c.Encode(shards)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		test := make([][]byte, 6)
		for j := 1; j < 4; j++ {
			test[j] = shards[j]
		}
		test[4], test[5] = parity[0], parity[1]
		if err := c.Reconstruct(test); err != nil {
			b.Fatal(err)
		}
	}
}
