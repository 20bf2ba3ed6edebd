package simnet

import "ustore/internal/disk"

// PoisonFrames makes every frame released to a FrameList, in any network, be
// overwritten with 0xDB from now on, and so is every disk chunk buffer whose
// last lend is released (disk.LendPoison: the chunk keeps a copy). It
// returns the function that undoes both. A reader that kept a read payload,
// copied or lent, past its callback then sees 0xDB, not bytes that happen to
// be still intact, and so does one whose lend was released early. Tests that
// use it must not run in parallel with other tests.
func PoisonFrames() (restore func()) {
	poison := func(frame []byte) {
		// Doubling copies, not a byte loop: under -race a byte loop over a
		// 4 MiB frame costs more than the read it follows.
		frame[0] = 0xDB
		for n := 1; n < len(frame); n *= 2 {
			copy(frame[n:], frame[:n])
		}
	}
	framePoison, disk.LendPoison = poison, poison
	return func() { framePoison, disk.LendPoison = nil, nil }
}

// FreeCounts returns how many frames each size class of f holds.
func (f *FrameList) FreeCounts() []int {
	out := make([]int, len(f.classes))
	for c := range f.classes {
		out[c] = len(f.classes[c])
	}
	return out
}
