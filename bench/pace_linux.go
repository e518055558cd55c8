//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerslack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// preciseSleep blocks the calling thread in nanosleep with its timer
// slack dropped to 1ns for the duration. time.Sleep cannot pace an open
// loop here: an idle Go process parks in epoll_wait, whose timeout is
// whole milliseconds, so a 300µs sleep returns after ~1ms
// (floor.sleep_overshoot_p50_us). nanosleep is late by tens of µs.
func preciseSleep(d time.Duration) {
	runtime.LockOSThread() // the three syscalls must hit one thread
	// Best effort: on failure the kernel default (50µs slack) stays.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	// EINTR just wakes the caller early; it re-reads the clock.
	_ = syscall.Nanosleep(&ts, nil)
	// 0 restores the thread's default slack, so the runtime's own timed
	// waits on this thread behave as they would without the benchmark.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0)
	runtime.UnlockOSThread()
}
