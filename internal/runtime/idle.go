package runtime

import (
	"context"
	"time"
)

// How the event and work-stealing dispatchers idle. The paper's event
// server blocks in one select that watches all activity and sleeps when
// nothing is ready (§3.2.2); both engines approximate that select by
// polling their sources one at a time, so they share three rules that
// keep the polling from turning into a spin:
//
//   - only ready work pre-empts a poll: a queued flow step, an offloaded
//     node's result, or a termination nudge may cut a source poll short
//     or skip the idle guard sleep, but another source's pending poll
//     may not — otherwise two Wake-honouring sources pre-wake each other
//     and the dispatcher loops through empty polls forever;
//   - a source that knows when its next record is due (IntervalSource)
//     leaves the dispatch queue until then, instead of holding the
//     dispatcher for a poll deadline per round while other sources'
//     data waits;
//   - the guard sleep reuses one timer per dispatcher.

// isWork reports whether a queued event is ready work rather than a
// source poll.
func (ev *event) isWork() bool { return ev.kind != evSource }

// countWork counts the ready work among a batch of events.
func countWork(evs []event) int {
	n := 0
	for i := range evs {
		if evs[i].isWork() {
			n++
		}
	}
	return n
}

// sourceRequeuer is an engine's side of parkSource: it returns a parked
// source's event to the dispatch queue and wakes a dispatcher for it.
type sourceRequeuer interface{ requeueSource(ev event) }

// parkSource takes a source event off the dispatch queue when its poll
// returned ErrNoData together with a due time (Flow.due): the engine
// requeues it once the due time arrives, or at once when ctx is
// cancelled so it can retire the source without waiting out the
// interval. The parked source still counts as live, so the engine
// cannot finish under it — nor before the waiting goroutine, which ends
// with the requeue. It reports false, leaving the event with the caller,
// when the source named no due time.
func parkSource(ctx context.Context, ev event, eng sourceRequeuer) bool {
	due := ev.fl.due
	if due.IsZero() {
		return false
	}
	ev.fl.due = time.Time{}
	go awaitDue(ctx, due, ev, eng)
	return true
}

func awaitDue(ctx context.Context, due time.Time, ev event, eng sourceRequeuer) {
	t := time.NewTimer(time.Until(due))
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
	}
	eng.requeueSource(ev)
}

// idleTimer is a dispatcher's reusable guard-sleep timer, so an idle
// source cycling through ErrNoData does not allocate a timer per round.
type idleTimer struct{ t *time.Timer }

// sleep waits for d, returning early when wake is signaled or done is
// closed.
func (it *idleTimer) sleep(d time.Duration, wake, done <-chan struct{}) {
	if it.t == nil {
		it.t = time.NewTimer(d)
	} else {
		it.t.Reset(d)
	}
	select {
	case <-it.t.C:
		return
	case <-wake:
	case <-done:
	}
	stopTimer(it.t)
}

// stopTimer stops a timer whose expiry was not received and drains a
// stale one, so the next Reset starts clean under either timer-channel
// semantics.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
