package simnet

// PoisonFrames makes every frame released to a FrameList, in any network, be
// overwritten with 0xDB from now on, and returns the function that undoes it.
// A reader that kept a read payload past its callback then sees 0xDB, not
// bytes that happen to be still intact. Tests that use it must not run in
// parallel with other tests.
func PoisonFrames() (restore func()) {
	framePoison = func(frame []byte) {
		// Doubling copies, not a byte loop: under -race a byte loop over a
		// 4 MiB frame costs more than the read it follows.
		frame[0] = 0xDB
		for n := 1; n < len(frame); n *= 2 {
			copy(frame[n:], frame[:n])
		}
	}
	return func() { framePoison = nil }
}
