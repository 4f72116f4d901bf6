package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3, func(*Kernel) { order = append(order, 3) })
	k.Schedule(1, func(*Kernel) { order = append(order, 1) })
	k.Schedule(2, func(*Kernel) { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if k.Now() != 3 {
		t.Errorf("final time = %v", k.Now())
	}
	if k.Processed() != 3 {
		t.Errorf("processed = %d", k.Processed())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func(*Kernel) { order = append(order, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("simultaneous events not FIFO: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.Schedule(1, func(k *Kernel) {
		times = append(times, k.Now())
		k.Schedule(1, func(k *Kernel) {
			times = append(times, k.Now())
		})
	})
	k.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	id := k.Schedule(1, func(*Kernel) { ran = true })
	if !k.Cancel(id) {
		t.Error("Cancel returned false for pending event")
	}
	if k.Cancel(id) {
		t.Error("double Cancel returned true")
	}
	k.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if k.Pending() != 0 {
		t.Errorf("pending = %d", k.Pending())
	}
}

func TestCancelAfterRun(t *testing.T) {
	k := NewKernel()
	id := k.Schedule(1, func(*Kernel) {})
	k.Run()
	if k.Cancel(id) {
		t.Error("Cancel of executed event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := NewKernel()
	var order []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, k.Schedule(Time(i+1), func(*Kernel) { order = append(order, i) }))
	}
	// Cancel events 3, 5, 7.
	for _, i := range []int{3, 5, 7} {
		if !k.Cancel(ids[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	k.Run()
	want := []int{0, 1, 2, 4, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var ran []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		k.ScheduleAt(at, func(*Kernel) { ran = append(ran, at) })
	}
	k.RunUntil(3.5)
	if len(ran) != 3 {
		t.Fatalf("ran %d events, want 3", len(ran))
	}
	if k.Now() != 3.5 {
		t.Errorf("Now = %v, want horizon 3.5", k.Now())
	}
	// Continue to the end.
	k.RunUntil(100)
	if len(ran) != 5 {
		t.Errorf("ran %d events total, want 5", len(ran))
	}
	if k.Now() != 100 {
		t.Errorf("Now = %v, want 100", k.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	k := NewKernel()
	ran := false
	k.ScheduleAt(5, func(*Kernel) { ran = true })
	k.RunUntil(5)
	if !ran {
		t.Error("event exactly at horizon did not run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.ScheduleAt(10, func(*Kernel) {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	k.ScheduleAt(5, func(*Kernel) {})
}

func TestScheduleNaNPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("NaN schedule did not panic")
		}
	}()
	k.ScheduleAt(math.NaN(), func(*Kernel) {})
}

func TestHorizonPastPanics(t *testing.T) {
	k := NewKernel()
	k.ScheduleAt(10, func(*Kernel) {})
	k.RunUntil(20)
	defer func() {
		if recover() == nil {
			t.Error("past horizon did not panic")
		}
	}()
	k.RunUntil(5)
}

func TestTimer(t *testing.T) {
	k := NewKernel()
	tm := NewTimer(k)
	fired := 0
	tm.Reset(5, func(*Kernel) { fired++ })
	if !tm.Armed() {
		t.Error("timer not armed after Reset")
	}
	if tm.Expires != 5 {
		t.Errorf("Expires = %v", tm.Expires)
	}
	// Re-arm before firing: only the second schedule runs.
	tm.Reset(10, func(*Kernel) { fired += 100 })
	k.Run()
	if fired != 100 {
		t.Errorf("fired = %d, want 100", fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel()
	tm := NewTimer(k)
	fired := false
	tm.Reset(1, func(*Kernel) { fired = true })
	if !tm.Stop() {
		t.Error("Stop of armed timer returned false")
	}
	if tm.Stop() {
		t.Error("Stop of unarmed timer returned true")
	}
	k.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerResetAt(t *testing.T) {
	k := NewKernel()
	tm := NewTimer(k)
	var at Time = -1
	tm.ResetAt(7, func(k *Kernel) { at = k.Now() })
	k.Run()
	if at != 7 {
		t.Errorf("ResetAt fired at %v", at)
	}
}

func TestTimerBind(t *testing.T) {
	k := NewKernel()
	var tm Timer // zero-value, slab-style
	tm.Bind(k)
	fired := false
	tm.Reset(3, func(*Kernel) { fired = true })
	k.Run()
	if !fired {
		t.Error("bound timer never fired")
	}
	// Rebinding an unarmed timer is legal (e.g. slab reuse)...
	tm.Bind(NewKernel())
	// ...but rebinding while armed must panic: the pending event belongs to
	// the old kernel.
	tm.Bind(k)
	tm.Reset(1, func(*Kernel) {})
	defer func() {
		if recover() == nil {
			t.Error("Bind of an armed timer did not panic")
		}
	}()
	tm.Bind(NewKernel())
}

func TestTimerResetArg(t *testing.T) {
	k := NewKernel()
	tm := NewTimer(k)
	type box struct{ fired int }
	b := &box{}
	h := func(_ *Kernel, arg any) { arg.(*box).fired++ }
	tm.ResetArg(5, h, b)
	if !tm.Armed() || tm.Expires != 5 {
		t.Errorf("armed=%v expires=%v", tm.Armed(), tm.Expires)
	}
	// Re-arming with a plain handler replaces the arg form entirely.
	tm.Reset(2, func(*Kernel) { b.fired += 100 })
	// ...and re-arming back to the arg form replaces the plain handler.
	tm.ResetAtArg(9, h, b)
	k.Run()
	if b.fired != 1 {
		t.Errorf("fired = %d, want exactly one arg-handler firing", b.fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerResetArgZeroAllocs(t *testing.T) {
	k := NewKernel()
	tm := NewTimer(k)
	h := func(*Kernel, any) {}
	arg := &struct{}{}
	tm.ResetArg(1, h, arg)
	tm.Stop()
	for i := 0; i < 64; i++ {
		k.Schedule(1, func(*Kernel) {})
	}
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.ResetArg(1, h, arg)
		tm.Stop()
	})
	if allocs != 0 {
		t.Errorf("steady-state Timer ResetArg+Stop allocates %g allocs/op, want 0", allocs)
	}
}

func TestQuickEventsExecuteInTimeOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var times []Time
		for _, d := range delays {
			k.Schedule(Time(d), func(k *Kernel) { times = append(times, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCancelExactlyRemoves(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		k := NewKernel()
		ran := make(map[int]bool)
		ids := make([]EventID, len(delays))
		for i, d := range delays {
			i := i
			ids[i] = k.Schedule(Time(d), func(*Kernel) { ran[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range delays {
			if i < len(cancelMask) && cancelMask[i] {
				k.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		k.Run()
		for i := range delays {
			if cancelled[i] == ran[i] {
				return false // cancelled must not run; uncancelled must run
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManyEventsStress(t *testing.T) {
	k := NewKernel()
	n := 50000
	for i := 0; i < n; i++ {
		k.Schedule(Time(i%977)+Time(i%31)*0.01, func(*Kernel) {})
	}
	k.Run()
	if k.Processed() != uint64(n) {
		t.Errorf("processed %d, want %d", k.Processed(), n)
	}
}

func TestQuickRunUntilChunkingEquivalent(t *testing.T) {
	// Splitting a run into arbitrary RunUntil chunks must execute the same
	// events at the same times as one big run.
	f := func(delays []uint8, cuts []uint8) bool {
		run := func(chunked bool) []Time {
			k := NewKernel()
			var times []Time
			for _, d := range delays {
				k.Schedule(Time(d)+0.5, func(kk *Kernel) { times = append(times, kk.Now()) })
			}
			if !chunked {
				k.RunUntil(300)
				return times
			}
			at := Time(0)
			for _, c := range cuts {
				at += Time(c % 50)
				if at > 300 {
					break
				}
				k.RunUntil(at)
			}
			k.RunUntil(300)
			return times
		}
		a := run(false)
		b := run(true)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
