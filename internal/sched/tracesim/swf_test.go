package tracesim

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The SWF traces under testdata/ are test fixtures: ParseSWF reads
// them into inline job lists for the golden, determinism and replay
// tests.

// SWFOptions tunes the Standard Workload Format mapping.
type SWFOptions struct {
	// ProcsPerMidplane scales SWF processor counts to midplanes
	// (ceiling division). Zero means 1: the trace's processor counts
	// are already midplane counts.
	ProcsPerMidplane int
	// MaxJobs truncates the parse after this many usable jobs (0 = no
	// truncation; the MaxJobs package bound still applies to the
	// resulting Spec).
	MaxJobs int
	// Pattern is the communication pattern imposed on every
	// ContentionEvery-th *usable* job (SWF carries no communication
	// information, so contention-boundness has to be declared here;
	// skipped lines — cancelled or unrecorded jobs — do not advance
	// the count, so the assignment is deterministic over the jobs that
	// actually enter the trace). An empty Pattern with
	// ContentionEvery > 0 still marks those jobs ContentionBound, so
	// they stretch by the bisection-ratio model instead of a
	// pattern-scored round time.
	Pattern string
	// ContentionEvery marks every n-th usable job (0 = none).
	ContentionEvery int
}

// ParseSWF parses a Standard Workload Format trace — the archive
// format of the Parallel Workloads Archive: `;` header/comment lines,
// then one job per line with ≥ 9 whitespace-separated fields — into
// inline trace entries ready to embed in a Spec.
//
// Field mapping (1-based SWF columns):
//
//	2  submit time     → ArrivalSec, shifted so the first job arrives at 0
//	4  run time        → RuntimeSec (fallback: 9, requested time)
//	5  allocated procs → Midplanes  (fallback: 8, requested procs),
//	                     scaled by ProcsPerMidplane
//
// Jobs with no usable runtime or processor count (both the primary
// and fallback fields missing, i.e. -1 in the archive convention) are
// skipped, matching the archive's "cleaned trace" guidance; malformed
// lines are errors.
func ParseSWF(r io.Reader, opts SWFOptions) ([]JobSpec, error) {
	perMid := opts.ProcsPerMidplane
	if perMid <= 0 {
		perMid = 1
	}
	if opts.Pattern != "" && !knownPattern(strings.ToLower(opts.Pattern)) {
		return nil, fmt.Errorf("tracesim: swf: unknown pattern %q (want pairing, all-to-all or neighbor)", opts.Pattern)
	}

	var jobs []JobSpec
	firstSubmit, haveFirst := 0.0, false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 9 {
			return nil, fmt.Errorf("tracesim: swf line %d: %d fields, want >= 9", lineNo, len(fields))
		}
		num := func(i int) (float64, error) {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return 0, fmt.Errorf("tracesim: swf line %d field %d: %w", lineNo, i, err)
			}
			return v, nil
		}
		submit, err := num(2)
		if err != nil {
			return nil, err
		}
		runSec, err := num(4)
		if err != nil {
			return nil, err
		}
		procs, err := num(5)
		if err != nil {
			return nil, err
		}
		if runSec <= 0 {
			if runSec, err = num(9); err != nil {
				return nil, err
			}
		}
		if procs <= 0 {
			if procs, err = num(8); err != nil {
				return nil, err
			}
		}
		if runSec <= 0 || procs <= 0 {
			continue // cancelled or unrecorded job
		}
		if !haveFirst {
			firstSubmit, haveFirst = submit, true
		}
		arrival := submit - firstSubmit
		if arrival < 0 {
			return nil, fmt.Errorf("tracesim: swf line %d: submit time %v precedes the trace start", lineNo, submit)
		}
		job := JobSpec{
			Midplanes:  (int(procs) + perMid - 1) / perMid,
			ArrivalSec: arrival,
			RuntimeSec: runSec,
		}
		if opts.ContentionEvery > 0 && len(jobs)%opts.ContentionEvery == 0 {
			job.Pattern = strings.ToLower(opts.Pattern)
			job.ContentionBound = true
		}
		jobs = append(jobs, job)
		if opts.MaxJobs > 0 && len(jobs) >= opts.MaxJobs {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracesim: swf: %w", err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("tracesim: swf: no usable jobs in trace")
	}
	return jobs, nil
}

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
