package core

import (
	"sort"

	"ustore/internal/disk"
	"ustore/internal/simtime"
)

// RollingSpinUp staggers the power-on spin-up of a deploy unit's disks so
// the motor-start surge (~24W per disk) never exceeds maxConcurrent disks
// at once — §III-B: "perform rolling spin-up at the power-on time, thus
// avoiding a large number of disks spinning up at the same time and
// overwhelming the power supply". done fires when every disk is ready.
//
// maxConcurrent <= 0 spins everything simultaneously (the naive policy the
// ablation compares against).
func RollingSpinUp(sched *simtime.Scheduler, disks map[string]*disk.Disk, maxConcurrent int, done func()) {
	ids := make([]string, 0, len(disks))
	for id := range disks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	remaining := len(ids)
	if remaining == 0 {
		if done != nil {
			sched.FireAfter(0, done)
		}
		return
	}
	finish := func() {
		remaining--
		if remaining == 0 && done != nil {
			done()
		}
	}
	if maxConcurrent <= 0 {
		for _, id := range ids {
			d := disks[id]
			watchReady(d, finish)
			d.SpinUp()
		}
		return
	}
	queue := ids
	var startNext func()
	startNext = func() {
		if len(queue) == 0 {
			return
		}
		id := queue[0]
		queue = queue[1:]
		d := disks[id]
		watchReady(d, func() {
			finish()
			startNext()
		})
		d.SpinUp()
	}
	n := maxConcurrent
	if n > len(queue) {
		n = len(queue)
	}
	for i := 0; i < n; i++ {
		startNext()
	}
}

// watchReady fires fn once when d leaves the spinning-up state (or
// immediately if it is already past it).
func watchReady(d *disk.Disk, fn func()) {
	switch d.State() {
	case disk.StateIdle, disk.StateActive:
		fn()
		return
	}
	fired := false
	d.OnStateChange(func(old, new disk.State) {
		if fired {
			return
		}
		if old == disk.StateSpinningUp && (new == disk.StateIdle || new == disk.StateActive) {
			fired = true
			fn()
		}
	})
}
