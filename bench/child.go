package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// childTimeout bounds one child-process pass.
const childTimeout = 150 * time.Second

// passReport is what a child-process pass reports on its standard
// output.
type passReport struct {
	Ops          int                `json:"ops"`
	Throughput   float64            `json:"throughput_ops_s"`
	AllocBytes   uint64             `json:"alloc_bytes"`
	Frames       int                `json:"frames"`
	Counters     map[string]float64 `json:"counters,omitempty"`
	PeerCounters map[string]float64 `json:"peer_counters,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
	Spans        []span             `json:"spans"`
}

// runChild runs one pass in this process, which the parent started
// fresh: "setup" reports "ready" once set up, "http" replays rounds
// rounds over HTTP with spans recorded, "lib" replays them against
// the library entry points, and "reference" times reference samples.
func runChild(ctx context.Context, pass, name string, seed int64, rounds int) error {
	if pass == "reference" {
		return runReference(os.Stdin, os.Stdout)
	}
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	w := mk(seed)
	switch pass {
	case "setup":
		e, err := setup(ctx, w, nil)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		return e.close()
	case "http":
		rec := newRecorder()
		e, err := setup(ctx, w, rec)
		if err != nil {
			return err
		}
		ph := runPhase(ctx, w, e, 0, rounds, nil)
		if err := e.close(); err != nil {
			return err
		}
		rep := &passReport{
			Ops:          len(ph.ops),
			Throughput:   endToEnd(ph, 0, unscaled)["throughput_ops_s"].Value,
			AllocBytes:   ph.alloc,
			Counters:     ph.counters,
			PeerCounters: ph.peerCounters,
			Failures:     ph.messages(),
			Spans:        rec.spans,
		}
		for _, o := range ph.ops {
			rep.Frames += o.frames
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	case "lib":
		// The same warm-up as the HTTP pass, then no server at all.
		e, err := setup(ctx, w, nil)
		if err != nil {
			return err
		}
		if err := e.close(); err != nil {
			return err
		}
		rec := newRecorder()
		rep := &passReport{}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		for r := 0; r < rounds; r++ {
			n, err := w.lib(ctx, rec, r)
			if err != nil {
				rep.Failures = append(rep.Failures, fmt.Sprintf("round %d: %v", r, err))
			}
			rep.Ops += n
		}
		runtime.ReadMemStats(&ms)
		rep.AllocBytes = ms.TotalAlloc - alloc0
		rep.Spans = rec.spans
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	return fmt.Errorf("unknown pass %q", pass)
}

// cmdPipes is a running child process with its standard output and,
// when asked for, its standard input.
type cmdPipes struct {
	*exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startChild starts this program again as a child-process pass.
func startChild(ctx context.Context, stdin bool, args ...string) (*cmdPipes, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &cmdPipes{Cmd: exec.CommandContext(ctx, exe, args...)}
	c.Stderr = os.Stderr
	if stdin {
		if c.in, err = c.StdinPipe(); err != nil {
			return nil, err
		}
	}
	out, err := c.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(out)
	return c, nil
}

// timeSetup measures one set-up in a fresh process: from starting the
// process until it reports ready, so process start-up and package
// initialisation count too.
func timeSetup(ctx context.Context, name string, seed int64) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	start := time.Now()
	cmd, err := startChild(ctx, false, "-pass", "setup", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return 0, err
	}
	line, rerr := cmd.out.ReadString('\n')
	d := time.Since(start)
	io.Copy(io.Discard, cmd.out) //nolint:errcheck // draining before Wait
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up child: did not report ready (%q, %v)", line, rerr)
	}
	return d, nil
}

// runPass runs one traced pass in a fresh process.
func runPass(ctx context.Context, pass, name string, seed int64, rounds int) (*passReport, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd, err := startChild(ctx, false, "-pass", pass, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-rounds", strconv.Itoa(rounds))
	if err != nil {
		return nil, err
	}
	var rep passReport
	derr := json.NewDecoder(cmd.out).Decode(&rep)
	io.Copy(io.Discard, cmd.out) //nolint:errcheck // draining before Wait
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", pass, err)
	}
	if derr != nil {
		return nil, fmt.Errorf("%s pass: report: %w", pass, derr)
	}
	return &rep, nil
}
