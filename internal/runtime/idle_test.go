package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The idle rules of the event and work-stealing engines (idle.go),
// checked by counting polls and ticks rather than measuring CPU.

// dispatchEngines are the engines that poll sources on a dispatcher.
var dispatchEngines = []EngineKind{EventDriven, WorkStealing}

const idleSrc = `
Chan () => (int v);
TickA () => (int v);
TickB () => (int v);
SinkChan (int v) => ();
SinkA (int v) => ();
SinkB (int v) => ();
source Chan => FChan;
FChan = SinkChan;
source TickA => FA;
FA = SinkA;
source TickB => FB;
FB = SinkB;
`

// chanSource is a Wake-honouring channel source: it waits for a value,
// the engine's wake signal, or the poll deadline, whichever comes first.
func chanSource(ch <-chan int, polls *atomic.Int64) SourceFunc {
	return func(fl *Flow) (Record, error) {
		polls.Add(1)
		t := time.NewTimer(fl.SourceTimeout)
		defer t.Stop()
		select {
		case v := <-ch:
			return Record{v}, nil
		case <-fl.Wake:
			return nil, ErrNoData
		case <-t.C:
			return nil, ErrNoData
		case <-fl.Ctx.Done():
			return nil, fl.Ctx.Err()
		}
	}
}

// countedSource counts the polls of a source.
func countedSource(src SourceFunc, polls *atomic.Int64) SourceFunc {
	return func(fl *Flow) (Record, error) {
		polls.Add(1)
		return src(fl)
	}
}

// TestIdleEngineDoesNotSpin: an idle engine with one Wake-honouring
// channel source and two hour-long interval sources. The interval
// sources must park after a poll or two instead of pre-empting the
// channel source, and the channel source must block for its full
// deadline — about one poll per SourceTimeout — instead of being
// pre-woken by the other sources' queued polls thousands of times.
func TestIdleEngineDoesNotSpin(t *testing.T) {
	const (
		timeout = 20 * time.Millisecond
		idleFor = 300 * time.Millisecond
	)
	for _, kind := range dispatchEngines {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, idleSrc)
			var chanPolls, aPolls, bPolls atomic.Int64
			b := NewBindings().
				BindSource("Chan", chanSource(make(chan int), &chanPolls)).
				BindSource("TickA", countedSource(IntervalSource(time.Hour), &aPolls)).
				BindSource("TickB", countedSource(IntervalSource(time.Hour), &bPolls)).
				BindNode("SinkChan", nopNode).
				BindNode("SinkA", nopNode).
				BindNode("SinkB", nopNode)
			s, err := NewServer(p, b, Config{Kind: kind, Dispatchers: 2, SourceTimeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			time.Sleep(idleFor)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			t.Logf("polls: chan=%d tickA=%d tickB=%d", chanPolls.Load(), aPolls.Load(), bPolls.Load())
			for name, n := range map[string]int64{"TickA": aPolls.Load(), "TickB": bPolls.Load()} {
				if n > 5 {
					t.Errorf("%s polled %d times while idle, want a handful (parked until due)", name, n)
				}
			}
			// ~15 polls at one per deadline; 4x headroom for slow
			// machines, far below the spin's thousands.
			if want := int64(4 * idleFor / timeout); chanPolls.Load() > want {
				t.Errorf("channel source polled %d times in %v, want <= %d (about one per %v)",
					chanPolls.Load(), idleFor, want, timeout)
			}
			if chanPolls.Load() < 2 {
				t.Errorf("channel source polled %d times, want it kept polling", chanPolls.Load())
			}
		})
	}
}

// TestIntervalSourceTicksBesideBusySource: parking must not cost an
// interval source its cadence — a 20ms ticker beside a source that
// always has a record still fires at about its rate.
func TestIntervalSourceTicksBesideBusySource(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		runFor   = 400 * time.Millisecond
	)
	for _, kind := range dispatchEngines {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, idleSrc)
			var busy atomic.Int64
			var mu sync.Mutex
			var ticks []time.Time
			b := NewBindings().
				BindSource("Chan", func(fl *Flow) (Record, error) {
					if err := fl.Ctx.Err(); err != nil {
						return nil, err
					}
					return Record{1}, nil
				}).
				BindSource("TickA", IntervalSource(interval)).
				BindSource("TickB", IntervalSource(time.Hour)).
				BindNode("SinkChan", func(fl *Flow, in Record) (Record, error) {
					busy.Add(1)
					return nil, nil
				}).
				BindNode("SinkA", func(fl *Flow, in Record) (Record, error) {
					mu.Lock()
					ticks = append(ticks, time.Now())
					mu.Unlock()
					return nil, nil
				}).
				BindNode("SinkB", nopNode)
			s, err := NewServer(p, b, Config{Kind: kind, Dispatchers: 2, SourceTimeout: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), runFor)
			defer cancel()
			if err := s.Run(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Run: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			t.Logf("ticks=%d busy flows=%d", len(ticks), busy.Load())
			if busy.Load() == 0 {
				t.Error("busy source made no progress")
			}
			// 20 ticks at the nominal rate; allow a loaded machine to
			// lose half of them, but not to stall the ticker.
			if want := int(runFor / interval / 2); len(ticks) < want {
				t.Errorf("%d ticks in %v, want >= %d", len(ticks), runFor, want)
			}
			// Ticks sit on a fixed grid, so a late tick may be followed
			// closely by the next, but never by a burst beyond the grid.
			if max := int(runFor/interval) + 1; len(ticks) > max {
				t.Errorf("%d ticks in %v, want <= %d (no bursts)", len(ticks), runFor, max)
			}
		})
	}
}

// TestShutdownWithParkedIntervalSource: a source parked on an hour-long
// interval is requeued at once on cancellation, so Shutdown drains
// promptly instead of waiting out the tick.
func TestShutdownWithParkedIntervalSource(t *testing.T) {
	for _, kind := range dispatchEngines {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, idleSrc)
			var aPolls atomic.Int64
			b := NewBindings().
				BindSource("Chan", counterSource(0)). // retires at once
				BindSource("TickA", countedSource(IntervalSource(time.Hour), &aPolls)).
				BindSource("TickB", IntervalSource(time.Hour)).
				BindNode("SinkChan", nopNode).
				BindNode("SinkA", nopNode).
				BindNode("SinkB", nopNode)
			s, err := NewServer(p, b, Config{Kind: kind, Dispatchers: 2, SourceTimeout: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for aPolls.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // let both interval sources park
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown with parked interval sources: %v after %v", err, time.Since(start))
			}
			if err := s.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			t.Logf("drained in %v", time.Since(start))
		})
	}
}
