package main

import (
	"runtime"
	"syscall"
	"time"
)

// sleeper waits with sub-millisecond precision. The Go scheduler parks
// a sleeping goroutine in the network poller, whose timeout has
// millisecond granularity, so time.Sleep(200µs) wakes about 1 ms late —
// far more than the gaps between arrivals at the open loop's rates. A
// sleeper locks its goroutine to an OS thread, drops that thread's timer
// slack to 1 µs, and sleeps in nanosleep(2) instead.
type sleeper struct{}

func preciseSleeper() sleeper {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return sleeper{}
}

func (sleeper) sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// release returns the thread to the scheduler. Its timer slack stays
// low; it is the generator's own thread.
func (sleeper) release() { runtime.UnlockOSThread() }
