package sim

import (
	"bytes"
	"log"
	"reflect"
	"strings"
	"testing"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/telemetry"
)

// TestRecordOnReuse pins the record-replay lifecycle on a shared
// Scratch: the cold build records nothing, the first reuse records every
// core's stream into a tape sized up front, and the second reuse replays
// it without generators. All three Results are byte-identical to a run
// on a private Scratch.
func TestRecordOnReuse(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("GS", mode)
			cfg.AccessesPerCore = 1_500
			want := run(t, cfg)

			sc := NewScratch()
			cfg.Scratch = sc
			for i, stage := range []string{"cold", "record", "replay"} {
				if got := run(t, cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s run diverges from a private-Scratch run\ngot:  %+v\nwant: %+v", stage, got, want)
				}
				if hits, _ := sc.MachineCacheStats(); hits != uint64(i) {
					t.Fatalf("%s run: %d machine reuses, want %d", stage, hits, i)
				}
				m := sc.mach
				if m == nil {
					t.Fatalf("%s run parked no machine", stage)
				}
				switch stage {
				case "cold":
					if m.trace != nil || m.traceOK {
						t.Fatalf("cold run allocated a tape (%d cores)", len(m.trace))
					}
				case "record":
					if !m.traceOK {
						t.Fatal("first reuse did not complete a recording")
					}
					for c, tape := range m.trace {
						if len(tape) != cfg.AccessesPerCore || cap(tape) != cfg.AccessesPerCore {
							t.Fatalf("core %d tape len=%d cap=%d, want both %d", c, len(tape), cap(tape), cfg.AccessesPerCore)
						}
					}
				case "replay":
					if m.gens != nil {
						t.Fatal("second reuse rebuilt its generators instead of replaying")
					}
				}
			}
		})
	}
}

// TestReplayBudgetSkipReportedOnce runs a machine whose streams exceed
// traceBudget three times on one Scratch: it never records, results stay
// identical, and the skip is logged once and counted once — per machine,
// not per run.
func TestReplayBudgetSkipReportedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs more than a million accesses three times")
	}
	cfg := smallConfig("STREAM", coalesce.ModeNone)
	cfg.AccessesPerCore = traceBudget/2 + 1 // two cores: one access over
	want := run(t, cfg)

	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)
	var skips int64
	cfg.Hooks = &telemetry.Hooks{Observer: func(ev telemetry.Event) { skips += ev.ReplaySkips }}
	cfg.Scratch = NewScratch()
	for i := 0; i < 3; i++ {
		got := run(t, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverges from a private-Scratch run", i)
		}
		if m := cfg.Scratch.mach; m == nil || m.trace != nil || m.traceOK {
			t.Fatalf("run %d: over-budget machine recorded a tape", i)
		}
	}
	if n := strings.Count(logged.String(), "record-replay skipped"); n != 1 {
		t.Errorf("skip logged %d times, want 1:\n%s", n, logged.String())
	}
	if skips != 1 {
		t.Errorf("skip counted %d times, want 1", skips)
	}
}
