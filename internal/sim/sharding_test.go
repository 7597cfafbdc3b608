package sim

import (
	"math/rand"
	"testing"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/nn"
)

// TestNewRejectsCoarseSharding: the simulator refuses a system with several
// devices per shard. core.Session.StepRound activates a shard only when at
// least half of its devices are present, so under 16 devices in 4 shards a
// one-device round (the gossip local step, or a sparse sync round) never
// activates its shard and leaves the encoder untouched — with no error.
// The probe below shows that hazard on the core API; New must then reject
// the coarse system and accept the one-device-per-shard one.
func TestNewRejectsCoarseSharding(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{
		Name: "shards", N: 16, M: 48, Classes: 2, FeatureDim: 8,
		PowerLaw: 2.2, Homophily: 0.85, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	build := func(shards int) *core.System {
		sys, err := core.NewSystem(g, g, core.Config{
			Task: core.Supervised, MCMCIterations: 10, Shards: shards, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// encoderUpdates runs one single-device round per device and counts
	// the rounds that changed any encoder weight.
	encoderUpdates := func(sys *core.System) int {
		sess, err := sys.NewSession(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		changed := 0
		for v := 0; v < g.N; v++ {
			before := nn.Snapshot(sys.Encoder)
			active := make([]bool, g.N)
			active[v] = true
			if _, err := sess.StepRound(core.RoundPlan{Active: active}); err != nil {
				t.Fatal(err)
			}
			after := nn.Snapshot(sys.Encoder)
		params:
			for i := range before {
				for j, x := range before[i].Data() {
					if after[i].Data()[j] != x {
						changed++
						break params
					}
				}
			}
		}
		return changed
	}

	coarse, exact := build(4), build(g.N)
	got, want := encoderUpdates(coarse), encoderUpdates(exact)
	t.Logf("single-device rounds that updated the encoder: %d/%d with 4 shards, %d/%d with %d", got, g.N, want, g.N, g.N)
	if got >= want || want == 0 {
		t.Fatal("probe: want fewer encoder updates with 4 shards than with one device per shard")
	}
	if _, err := New(coarse, Scenario{Rounds: 1}); err == nil {
		t.Fatal("New accepted a system with 4 shards over 16 devices")
	}
	if _, err := New(build(g.N), Scenario{Rounds: 1}); err != nil {
		t.Fatalf("New rejected a one-device-per-shard system: %v", err)
	}
}
