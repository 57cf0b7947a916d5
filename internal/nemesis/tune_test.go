package nemesis

import (
	"testing"
	"time"

	"hquorum/internal/epoch"
	"hquorum/internal/tuner"
)

// tunePolicy mirrors the auto-tune chaos cell's policy: margins relaxed
// for the simulator's forced read write-back (β≈1 shrinks the asymmetric
// read saving) and a MinOps small enough for the profiler window to fill
// from one node's paced workload.
func tunePolicy() *tuner.Policy {
	return &tuner.Policy{
		Interval: 250 * time.Millisecond,
		Span:     3 * time.Second,
		HoldFor:  2,
		MinOps:   8,
		MinGain:  1.1,
		MinAvail: 0.8,
	}
}

// runTuneShift drives the auto-tune cell at unit scale: a majority-9
// cluster under a crash storm (which takes the tuning node itself down
// for two seconds) whose workload shifts from a 50/50 mix to 95% reads
// mid-run.
func runTuneShift(t *testing.T, seed int64) RKVResult {
	t.Helper()
	initial := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	res, err := RunRKV(RKVRun{
		Initial:    initial,
		Space:      16,
		Seed:       seed,
		Schedule:   CrashStorm(16),
		OpsPerNode: 40,
		Keys:       8,
		ShiftReads: 0.95,
		AutoTune:   tunePolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunRKVAutoTuneShift: the tuner must drive at least one live swap
// (epoch ≥ 3: stable→joint→stable) off the measured mix with no schedule
// Reconfig action, settle it, and keep the history linearizable per key.
func TestRunRKVAutoTuneShift(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := runTuneShift(t, seed)
		if res.Err != nil {
			t.Fatalf("seed %d: history check: %v", seed, res.Err)
		}
		if res.Completed == 0 {
			t.Fatalf("seed %d: no operations completed", seed)
		}
		if res.Epoch < 3 {
			t.Errorf("seed %d: final epoch %d — the tuner never swapped", seed, res.Epoch)
		}
		if res.Joint {
			t.Errorf("seed %d: cluster still on a joint config after drain", seed)
		}
	}
}

// TestRunRKVAutoTuneDeterministic replays one seed and requires identical
// outcomes: the tuner's optimizer must not introduce nondeterminism into
// the chaos artifact.
func TestRunRKVAutoTuneDeterministic(t *testing.T) {
	a := runTuneShift(t, 7)
	b := runTuneShift(t, 7)
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Pending != b.Pending ||
		a.Messages != b.Messages || a.Epoch != b.Epoch || a.Joint != b.Joint {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
