package sim

import (
	"testing"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %d", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []int64
	e.After(10, func() {
		times = append(times, e.Now())
		e.After(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v", times)
	}
}

func TestEnginePastEventsClampToNow(t *testing.T) {
	e := NewEngine()
	var fired int64 = -1
	e.At(100, func() {
		e.At(50, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Errorf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	e.At(0, func() {}) // due now: queued, but not in the heap
	if e.Pending() != 3 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("pending after run = %d", e.Pending())
	}
}

func TestSlotsLimitConcurrency(t *testing.T) {
	e := NewEngine()
	s := NewSlots(e, 2)
	running, maxRunning, done := 0, 0, 0
	task := func() {
		running++
		if running > maxRunning {
			maxRunning = running
		}
		e.After(10, func() {
			running--
			done++
			s.Release()
		})
	}
	for i := 0; i < 5; i++ {
		s.Acquire(task)
	}
	e.Run()
	if maxRunning != 2 {
		t.Errorf("max concurrency = %d, want 2", maxRunning)
	}
	if done != 5 {
		t.Errorf("done = %d", done)
	}
	if s.Free() != 2 || s.Waiting() != 0 {
		t.Errorf("slots end state: free=%d waiting=%d", s.Free(), s.Waiting())
	}
}

func TestSlotsFIFOHandoff(t *testing.T) {
	e := NewEngine()
	s := NewSlots(e, 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Acquire(func() {
			order = append(order, i)
			e.After(1, s.Release)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("handoff order = %v", order)
		}
	}
}

func TestDeviceServiceTime(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, 1_000_000) // 1 MB/s => 1 byte/µs
	var doneAt int64
	d.Transfer(500, Demand, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 500 {
		t.Errorf("500-byte transfer at 1B/µs finished at %d", doneAt)
	}
	if d.Busy != 500 {
		t.Errorf("busy accounting = %d", d.Busy)
	}
}

func TestDeviceDemandBeatsBackground(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, 1_000_000)
	var order []string
	// Occupy the device, then queue one background and one demand
	// request; demand must be served first even though it arrived
	// second.
	d.Transfer(100, Demand, func() { order = append(order, "first") })
	d.Transfer(100, Background, func() { order = append(order, "bg") })
	d.Transfer(100, Demand, func() { order = append(order, "demand") })
	e.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "demand" || order[2] != "bg" {
		t.Errorf("service order = %v", order)
	}
}

func TestDeviceZeroBytesCompletesImmediately(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, 1_000_000)
	fired := false
	d.Transfer(0, Demand, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Errorf("zero transfer: fired=%v now=%d", fired, e.Now())
	}
}

func TestDeviceNoPreemption(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, 1_000_000)
	var bgDone, demandDone int64
	d.Transfer(1000, Background, func() { bgDone = e.Now() })
	e.At(10, func() {
		d.Transfer(10, Demand, func() { demandDone = e.Now() })
	})
	e.Run()
	if bgDone != 1000 {
		t.Errorf("background transfer interrupted: done at %d", bgDone)
	}
	if demandDone != 1010 {
		t.Errorf("demand after in-service background: done at %d, want 1010", demandDone)
	}
}

func TestDeviceMinimumServiceTime(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, 1<<40) // absurd bandwidth
	var doneAt int64 = -1
	d.Transfer(1, Demand, func() { doneAt = e.Now() })
	e.Run()
	if doneAt < 1 {
		t.Errorf("service time below 1µs floor: %d", doneAt)
	}
}
