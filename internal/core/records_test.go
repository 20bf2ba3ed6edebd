package core

import "testing"

// recordsHome fails t unless every free list in lists was used and has
// every record it made back: with nothing in flight at the end of a run, a
// record still out was lost or is held past its owner's last callback.
func recordsHome(t *testing.T, lists map[string]interface{ Counts() (made, idle int) }) {
	t.Helper()
	for name, l := range lists {
		if made, idle := l.Counts(); made == 0 || idle != made {
			t.Errorf("%s: %d of the %d records made are back", name, idle, made)
		}
	}
}
