package faultinject

import (
	"context"
	"testing"
	"time"
)

func TestMatchTargetDeterministicAndInRange(t *testing.T) {
	if got := MatchTarget(42, 0); got != 0 {
		t.Fatalf("span 0 must disable injection, got %d", got)
	}
	for seed := uint64(0); seed < 200; seed++ {
		a, b := MatchTarget(seed, 1000), MatchTarget(seed, 1000)
		if a != b {
			t.Fatalf("seed %d: MatchTarget not deterministic: %d vs %d", seed, a, b)
		}
		if a < 1 || a > 1000 {
			t.Fatalf("seed %d: target %d outside [1,1000]", seed, a)
		}
	}
	// The finalizer must actually spread seeds (not collapse to one value).
	if MatchTarget(1, 1000) == MatchTarget(2, 1000) && MatchTarget(2, 1000) == MatchTarget(3, 1000) {
		t.Fatal("MatchTarget collapses distinct seeds")
	}
}

func TestArmDisarmLifecycle(t *testing.T) {
	if Active() != nil {
		t.Fatal("injector armed at test start")
	}
	disarm, err := Arm(Config{PanicAtMatch: 3})
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	in := Active()
	if in == nil {
		t.Fatal("Active() nil after Arm")
	}
	if in.cfg.PanicMessage == "" {
		t.Fatal("Arm must default PanicMessage")
	}
	disarm()
	if Active() != nil {
		t.Fatal("Active() non-nil after disarm")
	}
	// A stale disarm must not remove a newer injector (last arm wins).
	d1, _ := Arm(Config{PanicAtMatch: 1})
	d2, _ := Arm(Config{PanicAtMatch: 2})
	d1() // stale: installed injector was already replaced
	if in := Active(); in == nil || in.cfg.PanicAtMatch != 2 {
		t.Fatal("stale disarm removed the newer injector")
	}
	d2()
	if Active() != nil {
		t.Fatal("Active() non-nil after final disarm")
	}
}

func TestNilInjectorMethodsAreNoOps(t *testing.T) {
	var in *Injector
	in.MatchesCounted(0, 1<<40) // must not panic
	in.BlockClaimed(0)
	ctx, stop := in.Context(context.Background())
	defer stop()
	if ctx.Err() != nil {
		t.Fatal("nil injector must not derive a cancelable context")
	}
}

// TestMatchesCountedPanicsCrossingN: the ordinal counts matches across
// calls and workers, and fires once, in the call whose batch reaches or
// passes it; batches after it pass.
func TestMatchesCountedPanicsCrossingN(t *testing.T) {
	disarm, err := Arm(Config{PanicAtMatch: 5, PanicMessage: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	in := Active()
	in.MatchesCounted(0, 2)
	in.MatchesCounted(1, 0) // an empty window counts nothing
	in.MatchesCounted(1, 2)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want \"boom\"", r)
			}
		}()
		in.MatchesCounted(2, 3) // 4 + 3 passes 5
		t.Fatal("the batch passing the ordinal must panic")
	}()
	in.MatchesCounted(0, 100) // exactly-once firing
}

func TestContextCancelAfter(t *testing.T) {
	disarm, err := Arm(Config{CancelAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	ctx, stop := Active().Context(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("derived context never canceled")
	}
	if ctx.Err() != context.Canceled {
		t.Fatalf("cancel-after must yield context.Canceled, got %v", ctx.Err())
	}
}

func TestBlockClaimedStallsOnlySelectedWorker(t *testing.T) {
	disarm, err := Arm(Config{StallWorker: 1, StallFor: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	in := Active()
	start := time.Now()
	in.BlockClaimed(0)
	if d := time.Since(start); d > 25*time.Millisecond {
		t.Fatalf("non-selected worker stalled %v", d)
	}
	start = time.Now()
	in.BlockClaimed(1)
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("selected worker stalled only %v, want >= 50ms", d)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		want Config
		bad  bool
	}{
		{spec: "panic@100", want: Config{PanicAtMatch: 100}},
		{spec: "panic@7:boom goes the miner", want: Config{PanicAtMatch: 7, PanicMessage: "boom goes the miner"}},
		{spec: "stall=2:50ms", want: Config{StallWorker: 2, StallFor: 50 * time.Millisecond}},
		{spec: "cancel=1s", want: Config{CancelAfter: time.Second}},
		{spec: "panic@100, stall=2:50ms ,cancel=250ms", want: Config{
			PanicAtMatch: 100, StallWorker: 2, StallFor: 50 * time.Millisecond, CancelAfter: 250 * time.Millisecond}},
		{spec: "", bad: true},        // enables nothing
		{spec: ",,", bad: true},      // enables nothing
		{spec: "panic@0", bad: true}, // ordinal must be >= 1
		{spec: "panic@x", bad: true}, // not a number
		{spec: "stall=2", bad: true}, // missing duration
		{spec: "stall=-1:1s", bad: true},
		{spec: "stall=2:0s", bad: true}, // non-positive stall
		{spec: "cancel=bogus", bad: true},
		{spec: "cancel=-1s", bad: true},
		{spec: "explode=now", bad: true}, // unknown clause
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseSpec(%q) = %+v, want error", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestArmFromEnv(t *testing.T) {
	// Unset: nothing arms, no error.
	t.Setenv(EnvFault, "")
	if _, _, armed, err := ArmFromEnv(); armed || err != nil {
		t.Fatalf("empty $%s: armed=%v err=%v, want unarmed nil", EnvFault, armed, err)
	}
	if Active() != nil {
		t.Fatal("empty spec must not install an injector")
	}

	// A bad spec reports the variable name and arms nothing.
	t.Setenv(EnvFault, "explode=now")
	if _, _, armed, err := ArmFromEnv(); err == nil || armed {
		t.Fatalf("bad spec: armed=%v err=%v, want error unarmed", armed, err)
	}
	if Active() != nil {
		t.Fatal("bad spec must not install an injector")
	}

	// A valid spec arms the process-wide injector; disarm removes it.
	t.Setenv(EnvFault, "panic@3:env boom")
	cfg, disarm, armed, err := ArmFromEnv()
	if err != nil || !armed {
		t.Fatalf("valid spec: armed=%v err=%v", armed, err)
	}
	if cfg.PanicAtMatch != 3 || cfg.PanicMessage != "env boom" {
		t.Fatalf("armed config = %+v", cfg)
	}
	if Active() == nil {
		t.Fatal("valid spec must install the injector")
	}
	defer func() {
		if r := recover(); r != "env boom" {
			t.Fatalf("recovered %v, want the env-configured message", r)
		}
		disarm()
		if Active() != nil {
			t.Fatal("disarm left the injector installed")
		}
	}()
	in := Active()
	in.MatchesCounted(0, 1)
	in.MatchesCounted(0, 1)
	in.MatchesCounted(0, 1) // third match trips the panic
}
