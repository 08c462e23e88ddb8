package scenario

import "testing"

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestPartitionPlacementAllocs pins scenario placement to the plan
// scan: once a size's plan is cached, placing a partition on a custom
// 16x16x16 machine allocates the same small amount at 8 and at 64
// midplanes under both scans — the machine, the grid and the result,
// never one allocation per candidate placement.
func TestPartitionPlacementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds drop sync.Pool items at random (fmt.Sscanf pools its scanners), so allocation counts vary")
	}
	for _, policy := range []string{PolicyFirstFit, PolicyBestBisection} {
		var allocs []float64
		for _, midplanes := range []int{8, 64} {
			spec := TopologySpec{Kind: KindPartition, Machine: "16x16x16", Midplanes: midplanes, Policy: policy}
			place := func() {
				if _, _, err := resolvePartition(spec, nil); err != nil {
					t.Fatal(err)
				}
			}
			place() // compiles and caches the plan
			allocs = append(allocs, testing.AllocsPerRun(10, place))
		}
		if allocs[0] != allocs[1] || allocs[1] >= 64 {
			t.Errorf("%s: %v allocations at 8 and 64 midplanes, want equal and below 64", policy, allocs)
		}
	}
}
