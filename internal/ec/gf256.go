// Package ec implements Reed-Solomon erasure coding over GF(2^8), the
// redundancy technique the paper expects upper-layer services to bring
// (§IV-E: "UStore delegates data recovery of failed disks to the data
// redundancy mechanisms supported by upper layer services"; §VIII cites
// erasure coding in Windows Azure Storage).
//
// The code is a classic systematic Vandermonde-based RS(k, m): k data
// shards produce m parity shards; any k of the k+m shards reconstruct the
// original data. Arithmetic is over GF(256) with the 0x11D primitive
// polynomial, using log/exp tables.
package ec

// gf256 log/exp tables for the AES-adjacent primitive polynomial x^8 + x^4
// + x^3 + x^2 + 1 (0x11D), generator 2.
var (
	gfExp [512]byte
	gfLog [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11D
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies in GF(256).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte {
	if a == 0 {
		panic("ec: inverse of zero")
	}
	return gfExp[255-gfLog[a]]
}

// mulSlice computes dst += c * src over GF(256) (dst and src same length).
func mulAddSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	logC := gfLog[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+gfLog[s]]
		}
	}
}
