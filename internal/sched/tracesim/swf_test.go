package tracesim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseSample(t *testing.T, opts SWFOptions) []JobSpec {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "sample.swf"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jobs, err := ParseSWF(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestParseSWF(t *testing.T) {
	jobs := parseSample(t, SWFOptions{ProcsPerMidplane: 512})
	// 26 lines, one cancelled (job 9) is skipped.
	if len(jobs) != 25 {
		t.Fatalf("%d jobs, want 25", len(jobs))
	}
	// Job 1: submit 0, run 1800, 4096 procs → 8 midplanes.
	if jobs[0].ArrivalSec != 0 || jobs[0].RuntimeSec != 1800 || jobs[0].Midplanes != 8 {
		t.Fatalf("job 0 = %+v", jobs[0])
	}
	// Arrivals are shifted to the first submit and non-decreasing.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ArrivalSec < jobs[i-1].ArrivalSec {
			t.Fatalf("arrival regresses at %d", i)
		}
	}
	// Job 7 (line 7): run -1 falls back to requested time 1800.
	if jobs[6].RuntimeSec != 1800 || jobs[6].Midplanes != 4 {
		t.Fatalf("runtime fallback job = %+v", jobs[6])
	}
	// Line 11 (after the skipped cancellation): 8192 procs → 16.
	if jobs[9].Midplanes != 16 {
		t.Fatalf("line-11 job = %+v", jobs[9])
	}
	// Line 12: procs -1 falls back to requested 4096 → 8.
	if jobs[10].Midplanes != 8 || jobs[10].RuntimeSec != 1500 {
		t.Fatalf("procs fallback job = %+v", jobs[10])
	}
	// The parsed trace embeds in a Spec that validates.
	spec := Spec{Machine: "juqueen", Jobs: jobs}
	if _, err := spec.Normalize(); err != nil {
		t.Fatalf("parsed trace does not validate: %v", err)
	}
}

func TestParseSWFDeterministic(t *testing.T) {
	a := parseSample(t, SWFOptions{ProcsPerMidplane: 512})
	b := parseSample(t, SWFOptions{ProcsPerMidplane: 512})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between identical parses", i)
		}
	}
}

func TestParseSWFOptions(t *testing.T) {
	// Default scaling: procs are midplanes.
	raw := parseSample(t, SWFOptions{})
	if raw[0].Midplanes != 4096 {
		t.Fatalf("unscaled midplanes = %d", raw[0].Midplanes)
	}
	// Truncation.
	few := parseSample(t, SWFOptions{ProcsPerMidplane: 512, MaxJobs: 5})
	if len(few) != 5 {
		t.Fatalf("%d jobs, want 5", len(few))
	}
	// Deterministic pattern assignment.
	pat := parseSample(t, SWFOptions{ProcsPerMidplane: 512, Pattern: "pairing", ContentionEvery: 3})
	marked := 0
	for i, j := range pat {
		want := i%3 == 0
		if (j.Pattern != "") != want {
			t.Fatalf("job %d pattern = %q", i, j.Pattern)
		}
		if j.Pattern != "" {
			marked++
			if !j.ContentionBound {
				t.Fatal("patterned SWF job not contention-bound")
			}
		}
	}
	if marked == 0 {
		t.Fatal("no patterned jobs")
	}
}

func TestParseSWFErrors(t *testing.T) {
	cases := map[string]string{
		"short line":      "1 0 0 100 4\n",
		"bad number":      "1 zero 0 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n",
		"no usable jobs":  "; empty\n1 0 0 -1 4 -1 -1 4 -1 -1 0 1 1 1 1 -1 -1 -1\n",
		"time regression": "1 100 0 60 4 -1 -1 4 60 -1 1 1 1 1 1 -1 -1 -1\n2 50 0 60 4 -1 -1 4 60 -1 1 1 1 1 1 -1 -1 -1\n",
		"bad pattern":     "", // via options below
	}
	for name, body := range cases {
		opts := SWFOptions{}
		if name == "bad pattern" {
			body = "1 0 0 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n"
			opts.Pattern = "warp"
			opts.ContentionEvery = 1
		}
		if _, err := ParseSWF(strings.NewReader(body), opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
