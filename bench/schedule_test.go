package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func scheduleBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(serveSchedule(seed, 340, 2))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeScheduleIsAFunctionOfTheSeed(t *testing.T) {
	if !bytes.Equal(scheduleBytes(t, 7), scheduleBytes(t, 7)) {
		t.Error("two schedules of seed 7 differ")
	}
	if bytes.Equal(scheduleBytes(t, 7), scheduleBytes(t, 8)) {
		t.Error("schedules of seeds 7 and 8 are equal")
	}
	a, _ := json.Marshal(clusterSchedule(7, 24))
	b, _ := json.Marshal(clusterSchedule(7, 24))
	c, _ := json.Marshal(clusterSchedule(8, 24))
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Error("cluster schedule is not a function of the seed alone")
	}
}

// The mix is fixed by quota so that runs with different seeds do the
// same work; only order, input seeds and repeat targets vary.
func TestServeScheduleQuotasAndTargets(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for c, list := range serveSchedule(seed, 340, 2) {
			if len(list) != 170 {
				t.Fatalf("client %d has %d ops, want 170", c, len(list))
			}
			kinds := map[opKind]int{}
			apps := map[string]int{}
			repeats := map[string]int{}
			bodies := map[string]bool{}
			for i, op := range list {
				kinds[op.Kind]++
				switch op.Kind {
				case opCold:
					apps[op.Params.App]++
					fallthrough
				case opDup:
					if bodies[op.Body] {
						t.Errorf("seed %d client %d op %d: fresh body seen before", seed, c, i)
					}
					bodies[op.Body] = true
				case opRepeat:
					repeats[op.Params.App]++
					if op.Target < 0 || op.Target > i-1-repeatGap || list[op.Target].Kind != opCold {
						t.Errorf("seed %d client %d op %d: repeat target %d", seed, c, i, op.Target)
					} else if op.Body != list[op.Target].Body {
						t.Errorf("seed %d client %d op %d: body differs from its target's", seed, c, i)
					}
				}
			}
			if kinds[opCold] != 102 || kinds[opRepeat] != 51 || kinds[opDup] != 17 {
				t.Errorf("seed %d client %d: mix %v, want 102 cold / 51 repeat / 17 dup", seed, c, kinds)
			}
			for _, a := range serveApps {
				if n := apps[a]; n < 20 || n > 21 {
					t.Errorf("seed %d client %d: %d cold %s jobs, want an even fifth of 102", seed, c, n, a)
				}
				if n := repeats[a]; n < 9 || n > 12 {
					t.Errorf("seed %d client %d: %d repeats of %s jobs, want about a fifth of 51", seed, c, n, a)
				}
			}
		}
	}
}

func TestSmallSchedulesAlwaysHaveARepeatTarget(t *testing.T) {
	for n := 1; n <= 40; n++ {
		serveSchedule(1, n, 1) // panics on an empty eligible set
	}
}

func TestSubSeedSeparatesStreams(t *testing.T) {
	seen := map[int64]bool{}
	for _, stream := range []string{"a", "b"} {
		for i := 0; i < 100; i++ {
			s := subSeed(1, stream, i)
			if s < 0 || seen[s] {
				t.Fatalf("subSeed(1, %q, %d) = %d: negative or repeated", stream, i, s)
			}
			seen[s] = true
		}
	}
}
