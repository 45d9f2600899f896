package des

import (
	"testing"
	"testing/quick"

	"mpgraph/internal/dist"
)

func TestFiresInTimestampOrder(t *testing.T) {
	var s Sim
	var got []int64
	for _, at := range []int64{50, 10, 30, 20, 40} {
		at := at
		s.At(at, EventFunc(func(sim *Sim) { got = append(got, sim.Now()) }))
	}
	end := s.Run()
	if end != 50 {
		t.Fatalf("final time %d, want 50", end)
	}
	want := []int64{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Fired() != 5 {
		t.Fatalf("fired = %d", s.Fired())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	var s Sim
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, EventFunc(func(*Sim) { got = append(got, i) }))
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events fired out of insertion order: %v", got)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var s Sim
	depth := 0
	var chain func(sim *Sim)
	chain = func(sim *Sim) {
		depth++
		if depth < 5 {
			sim.At(sim.Now()+7, EventFunc(chain))
		}
	}
	s.At(0, EventFunc(chain))
	end := s.Run()
	if depth != 5 {
		t.Fatalf("depth = %d", depth)
	}
	if end != 28 {
		t.Fatalf("end = %d, want 28", end)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Sim
	s.At(100, EventFunc(func(sim *Sim) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		sim.At(50, EventFunc(func(*Sim) {}))
	}))
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	var s Sim
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.At(s.Now()-1, EventFunc(func(*Sim) {}))
}

func TestQuickMonotonicFiring(t *testing.T) {
	// Property: for arbitrary schedules, events always fire in
	// non-decreasing time order.
	f := func(seed uint64, n uint8) bool {
		r := dist.NewRNG(seed)
		var s Sim
		count := int(n)%64 + 1
		var times []int64
		for i := 0; i < count; i++ {
			s.At(int64(r.Intn(1000)), EventFunc(func(sim *Sim) {
				times = append(times, sim.Now())
			}))
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
