package dsp

import (
	"testing"
	"time"

	"mobileqoe/internal/energy"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

func TestServiceTimeScalesWithSteps(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	one := d.ServiceTime(1000)
	ten := d.ServiceTime(10000)
	if diff := (ten - 10*one).Abs(); diff > 10*time.Nanosecond {
		t.Fatalf("service time not linear: %v vs %v", one, ten)
	}
	// 1e6 steps at 0.55 cycles/step on 800 MHz = 687.5 µs.
	want := 687500 * time.Nanosecond
	if got := d.ServiceTime(1_000_000); (got - want).Abs() > time.Microsecond {
		t.Fatalf("1M steps = %v, want %v", got, want)
	}
}

func TestCallCompletesWithRPCOverhead(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	var doneAt time.Duration
	d.Call(1_000_000, 2048, func() { doneAt = s.Now() })
	s.Run()
	// service 687.5µs + 100µs RPC + 1µs marshal.
	min := 687500*time.Nanosecond + 100*time.Microsecond
	max := min + 20*time.Microsecond
	if doneAt < min || doneAt > max {
		t.Fatalf("call latency = %v, want in [%v, %v]", doneAt, min, max)
	}
	if d.Calls() != 1 {
		t.Fatal("call not counted")
	}
}

func TestFIFOQueueing(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	var first, second time.Duration
	d.Call(1_000_000, 0, func() { first = s.Now() })
	d.Call(1_000_000, 0, func() { second = s.Now() })
	s.Run()
	if second <= first {
		t.Fatalf("second call (%v) should finish after first (%v)", second, first)
	}
	if gap := second - first; (gap - 687500*time.Nanosecond).Abs() > 100*time.Microsecond {
		t.Fatalf("queueing gap = %v, want ~687µs service", gap)
	}
}

func TestCallLatencyIncludesQueue(t *testing.T) {
	latency := func(busySteps int64) time.Duration {
		s := sim.New()
		d := New(s, Config{})
		if busySteps > 0 {
			d.Call(busySteps, 0, nil) // occupy the DSP first
		}
		var doneAt time.Duration
		d.Call(1_000_000, 0, func() { doneAt = s.Now() })
		s.Run()
		return doneAt
	}
	idle, queued := latency(0), latency(10_000_000) // 10M steps: 6.875 ms
	if wait := queued - idle; (wait - 6875*time.Microsecond).Abs() > 10*time.Microsecond {
		t.Fatalf("queued latency %v, idle %v: want ~6.875 ms of queueing", queued, idle)
	}
}

func TestEnergyModelFourXCheaperThanCore(t *testing.T) {
	// The headline §4.2 result: running the regex workload on the DSP draws
	// roughly a quarter of the power of an application core.
	s := sim.New()
	m := energy.NewMeter(s.Now)
	d := New(s, Config{Obs: obs.Ctx{Meter: m}})
	var during float64
	d.Call(100_000_000, 0, nil) // ~68.75 ms of service
	s.At(20*time.Millisecond, func() { during = m.Power("dsp") })
	s.Run()
	if during != d.Config().ActiveWatts {
		t.Fatalf("active power = %v, want %v", during, d.Config().ActiveWatts)
	}
	corePower := energy.DynamicPower(energy.CoreCeff, units.MHz(1512), 1.25)
	ratio := corePower / during
	if ratio < 3.5 || ratio > 8 {
		t.Fatalf("core/DSP power ratio = %.1f, want ~4-6x", ratio)
	}
	// After the burst the meter returns to idle.
	if p := m.Power("dsp"); p != d.Config().IdleWatts {
		t.Fatalf("post-burst power = %v, want idle", p)
	}
}

func TestBusyWindowExtension(t *testing.T) {
	// Back-to-back calls must keep the meter at active power in between.
	s := sim.New()
	m := energy.NewMeter(s.Now)
	d := New(s, Config{Obs: obs.Ctx{Meter: m}})
	d.Call(10_000_000, 0, nil) // ~6.9ms
	d.Call(10_000_000, 0, nil) // queued, +6.9ms
	var mid float64
	s.At(9*time.Millisecond, func() { mid = m.Power("dsp") })
	s.Run()
	if mid != d.Config().ActiveWatts {
		t.Fatalf("power dipped to %v between queued calls", mid)
	}
}

func TestCPUCyclesMapping(t *testing.T) {
	if CPUCycles(1000) != 8000 {
		t.Fatalf("CPUCycles(1000) = %v", CPUCycles(1000))
	}
}

func TestDefaults(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	cfg := d.Config()
	if cfg.Freq != units.MHz(800) || cfg.RPCOverhead != 100*time.Microsecond {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.ActiveWatts <= cfg.IdleWatts {
		t.Fatal("active must exceed idle")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	var last time.Duration
	d.Call(1_000_000, 0, nil)
	d.Call(2_000_000, 0, func() { last = s.Now() })
	s.Run()
	// Back-to-back calls keep the DSP busy from the first request's arrival
	// to the last response, so that span minus one RPC overhead is the
	// summed service time.
	busy := last - d.Config().RPCOverhead
	want := time.Duration(3_000_000 * 0.55 / 800e6 * 1e9)
	if diff := (busy - want).Abs(); diff > 10*time.Microsecond {
		t.Fatalf("busy time = %v, want %v", busy, want)
	}
}
