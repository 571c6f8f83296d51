package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/pacsim/pac/internal/coalesce"
)

// checkpointedRun executes cfg with checkpointing at the given cadence
// and returns the result plus every emitted checkpoint, each gob
// round-tripped so the test also proves the encoding is lossless.
func checkpointedRun(t *testing.T, cfg Config, every int64) (*Result, []*Checkpoint) {
	t.Helper()
	var cks []*Checkpoint
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(ck *Checkpoint) {
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, ck); err != nil {
			t.Fatalf("EncodeCheckpoint: %v", err)
		}
		dec, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("DecodeCheckpoint: %v", err)
		}
		cks = append(cks, dec)
	}
	res := run(t, cfg)
	return res, cks
}

// resumeRun resumes from a checkpoint and runs to completion.
func resumeRun(t *testing.T, cfg Config, ck *Checkpoint) *Result {
	t.Helper()
	cfg.CheckpointEvery = 0
	cfg.CheckpointSink = nil
	r, err := ResumeFrom(cfg, ck)
	if err != nil {
		t.Fatalf("ResumeFrom: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run (resumed): %v", err)
	}
	return res
}

// assertSameResult compares two results byte-for-byte modulo
// SkippedCycles, which is driver accounting: a resumed run only skips
// cycles after the resume point, so its skip total legitimately differs
// from the uninterrupted run's.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.SkippedCycles, w.SkippedCycles = 0, 0
	if !reflect.DeepEqual(&g, &w) {
		t.Errorf("%s: resumed result diverges from uninterrupted run\ngot:  %+v\nwant: %+v", label, g, w)
	}
}

// cadenceFor picks a checkpoint interval that yields several checkpoints
// over a run of the given length.
func cadenceFor(cycles int64) int64 {
	every := cycles / 6
	if every < 1 {
		every = 1
	}
	return every
}

// TestCheckpointResumeByteIdentity is the crash-safety tentpole
// contract: for every mode under both drivers, (1) a checkpointing run
// is byte-identical to a non-checkpointing run, and (2) resuming from
// any mid-run checkpoint and running to completion reproduces the
// uninterrupted result exactly — every counter, histogram bucket and
// component snapshot. Checkpoints cross the gob codec on the way, so
// the serialized form is proven lossless too.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	for _, mode := range allModes {
		for _, ref := range []bool{false, true} {
			mode, ref := mode, ref
			driver := "events"
			if ref {
				driver = "reference"
			}
			t.Run(fmt.Sprintf("%s/%s", mode, driver), func(t *testing.T) {
				cfg := smallConfig("GS", mode)
				cfg.AccessesPerCore = 1_200
				cfg.ReferenceStepper = ref
				base := run(t, cfg)

				ckRes, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
				if !reflect.DeepEqual(ckRes, base) {
					t.Fatalf("checkpointing perturbed the run\nwith:    %+v\nwithout: %+v", *ckRes, *base)
				}
				if len(cks) < 3 {
					t.Fatalf("got %d checkpoints, want >= 3 (cycles=%d)", len(cks), base.Cycles)
				}
				for _, i := range []int{0, len(cks) / 2, len(cks) - 1} {
					got := resumeRun(t, cfg, cks[i])
					assertSameResult(t, fmt.Sprintf("checkpoint %d @%d", i, cks[i].Now), got, base)
				}
			})
		}
	}
}

// TestCheckpointResumeCrossDriver proves a checkpoint is driver-neutral:
// taken under the event kernel, resumed under the reference stepper —
// and the reverse — still reproduces the uninterrupted result. The
// config signature deliberately excludes ReferenceStepper for exactly
// this reason.
func TestCheckpointResumeCrossDriver(t *testing.T) {
	cfg := smallConfig("CG", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	base := run(t, cfg)

	for _, takeRef := range []bool{false, true} {
		src := cfg
		src.ReferenceStepper = takeRef
		_, cks := checkpointedRun(t, src, cadenceFor(base.Cycles))
		dst := cfg
		dst.ReferenceStepper = !takeRef
		got := resumeRun(t, dst, cks[len(cks)/2])
		assertSameResult(t, fmt.Sprintf("takeRef=%v", takeRef), got, base)
	}
}

// TestCheckpointResumeFaults extends the resume contract to degraded
// hardware: the fault injector's PRNG streams and pending stall window
// are part of the checkpoint, so a resumed chaos run must replay the
// exact same fault sequence.
func TestCheckpointResumeFaults(t *testing.T) {
	for _, mode := range []coalesce.Mode{coalesce.ModePAC, coalesce.ModeDMC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("CG", mode)
			cfg.AccessesPerCore = 1_200
			cfg.Faults = chaosPlan()
			base := run(t, cfg)
			if base.Faults.Total() == 0 {
				t.Fatal("chaos plan injected no faults; test is vacuous")
			}
			_, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
			got := resumeRun(t, cfg, cks[len(cks)/2])
			assertSameResult(t, mode.String(), got, base)
		})
	}
}

// TestCheckpointResumeMultiprocessVirtualized covers the remaining
// config axes: co-running processes and virtual address translation.
// The page tables' insertion-order-dependent layout is serialized, so
// post-resume allocations probe exactly as the original run would have.
func TestCheckpointResumeMultiprocessVirtualized(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.Procs = []ProcSpec{{Benchmark: "GS", Cores: 1}, {Benchmark: "STREAM", Cores: 1}}
	cfg.AccessesPerCore = 1_200
	cfg.Virtualize = true
	base := run(t, cfg)
	_, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
	got := resumeRun(t, cfg, cks[len(cks)/2])
	assertSameResult(t, "multiprocess-virtualized", got, base)
}

// TestCheckpointResumeWarmScratch resumes onto a warm Scratch holding a
// parked machine from a completed run of the same shape: the restore
// then lands on a trace-replaying machine (traceOK), exercising the
// index-replay path instead of generator fast-forward. Both must give
// the same answer.
func TestCheckpointResumeWarmScratch(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	base := run(t, cfg)
	_, cks := checkpointedRun(t, cfg, cadenceFor(base.Cycles))
	ck := cks[len(cks)/2]

	sc := NewScratch()
	warm := cfg
	warm.Scratch = sc
	run(t, warm) // park a machine
	run(t, warm) // reuse it once, which records the streams

	got := resumeRun(t, warm, ck)
	assertSameResult(t, "warm-scratch", got, base)

	// The parked machine must survive resume+rerun uncorrupted: a fresh
	// full run on the same Scratch still matches the cold baseline.
	again := run(t, warm)
	assertSameResult(t, "post-resume-full-run", again, base)
}

// TestCheckpointMismatchRejected proves a checkpoint cannot be restored
// onto a machine it does not describe.
func TestCheckpointMismatchRejected(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	_, cks := checkpointedRun(t, cfg, 2_000)
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	ck := cks[0]

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := ResumeFrom(other, ck); err == nil {
		t.Error("ResumeFrom accepted a checkpoint from a different seed")
	}
	other = cfg
	other.Mode = coalesce.ModeNone
	if _, err := ResumeFrom(other, ck); err == nil {
		t.Error("ResumeFrom accepted a checkpoint from a different mode")
	}
}

// TestCheckpointCallerGeneratorsRejected pins the documented limit:
// caller-supplied generators have no replay contract, so both
// checkpointing and resuming refuse them.
func TestCheckpointCallerGeneratorsRejected(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	if err := cfg.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	gens, err := buildGenerators(&cfg)
	if err != nil {
		t.Fatalf("buildGenerators: %v", err)
	}
	cfg.Generators = gens
	cfg.CheckpointEvery = 1_000
	cfg.CheckpointSink = func(*Checkpoint) {}
	if _, err := NewRunner(cfg); err == nil {
		t.Error("NewRunner accepted checkpointing with caller-supplied generators")
	}
	cfg.CheckpointEvery = 0
	cfg.CheckpointSink = nil
	if _, err := ResumeFrom(cfg, &Checkpoint{}); err == nil {
		t.Error("ResumeFrom accepted caller-supplied generators")
	}
}

// TestDecodeCheckpointCorrupt proves a truncated stream reports an
// error instead of yielding a half-restored checkpoint. (gob itself has
// no integrity check — a flipped payload byte can still decode — which
// is why the durable on-disk form adds a checksummed envelope at the
// server layer.)
func TestDecodeCheckpointCorrupt(t *testing.T) {
	cfg := smallConfig("GS", coalesce.ModePAC)
	cfg.AccessesPerCore = 1_200
	_, cks := checkpointedRun(t, cfg, 2_000)
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cks[0]); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	raw := buf.Bytes()
	if _, err := DecodeCheckpoint(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("DecodeCheckpoint accepted a truncated stream")
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Error("DecodeCheckpoint accepted an empty stream")
	}
}
