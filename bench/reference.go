package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// The machines this benchmark runs on are shared, and an unchanged
// binary's speed drifts on them by up to 2× over minutes. On a 2-vCPU
// virtual machine two things move it: the hypervisor running the vCPUs
// less (steal), which stretches wall time but not CPU time, and
// neighbours slowing the instructions that do run, which stretches both.
// Raw timings from two runs minutes apart therefore differ more than any
// useful regression bound. So every timing the benchmark reports is
// scaled by a reference: a fixed piece of work that uses only the Go
// standard library, timed in a child process of its own between the
// measured rounds. Its cost does not depend on this repository's code,
// and its own heap and collector do not see the benchmark's, so it
// tracks the host alone. A wall time is scaled by the reference's wall
// time, a CPU time by the reference's CPU time: a reported timing is the
// measured one times refNominal over the run's median sample, the time
// the work would take on a host where the reference takes refNominal. One sample swings by a third from the next, so only the median
// of many is steady enough to scale by.

// refNominal is the reference sample's wall time, and about its CPU
// time, on a calm host of the kind the benchmark was sized on (2 vCPUs
// of a 2.1 GHz Xeon).
const refNominal = 15 * time.Millisecond

// refEvery is the measured phase's time per reference sample.
const refEvery = 250 * time.Millisecond

// The reference sample: refRequests JSON round trips over loopback, each
// a POST of refRecords records that the handler decodes, sorts and
// encodes back and the client decodes. It exercises what the workloads
// spend their time on (HTTP, JSON, allocation and collection, goroutine
// hand-offs) without any netpart code.
const (
	refRequests = 10
	refRecords  = 300
	refWarm     = 3 // samples the child discards before its first answer
)

type refRecord struct {
	ID   string   `json:"id"`
	A    int      `json:"a"`
	B    int      `json:"b"`
	F    float64  `json:"f"`
	Tags []string `json:"tags"`
}

func refBody() []byte {
	recs := make([]refRecord, refRecords)
	for i := range recs {
		recs[i] = refRecord{ID: strconv.Itoa(i * 7919 % refRecords), A: i, B: i * 31 % 977, F: float64(i) / 3, Tags: []string{"x", "y"}}
	}
	b, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	return b
}

func refHandler(w http.ResponseWriter, r *http.Request) {
	var recs []refRecord
	if err := json.NewDecoder(r.Body).Decode(&recs); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(recs) //nolint:errcheck // the client checks what it reads
}

// runReference is the reference child: it serves the reference handler
// on loopback and, for every line it reads, times one sample against
// it and writes the sample's wall and CPU nanoseconds as a line. It
// ends when its input does.
func runReference(in io.Reader, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(refHandler)}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck // ends with Close below
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	url := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	body := refBody()

	sample := func() (wall, cpu time.Duration, err error) {
		start, cpu0 := time.Now(), cpuTime()
		for i := 0; i < refRequests; i++ {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return 0, 0, err
			}
			var back []refRecord
			err = json.NewDecoder(resp.Body).Decode(&back)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if err == nil && len(back) != refRecords {
				err = fmt.Errorf("reference answer has %d records, want %d", len(back), refRecords)
			}
			if err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start), cpuTime() - cpu0, nil
	}
	for i := 0; i < refWarm; i++ {
		if _, _, err := sample(); err != nil {
			return err
		}
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		wall, cpu, err := sample()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, wall.Nanoseconds(), cpu.Nanoseconds()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// reference is the parent's handle on the reference child.
type reference struct {
	cmd       *cmdPipes
	cancel    context.CancelFunc
	wall, cpu []float64 // samples, nanoseconds
}

// startReference starts the reference child, which is killed if it is
// still running after childTimeout.
func startReference(ctx context.Context) (*reference, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	c, err := startChild(ctx, true, "-pass", "reference")
	if err != nil {
		cancel()
		return nil, err
	}
	return &reference{cmd: c, cancel: cancel}, nil
}

// sample times one reference sample while this process waits.
func (r *reference) sample() error {
	if _, err := io.WriteString(r.cmd.in, "\n"); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	line, err := r.cmd.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	var wall, cpu int64
	if _, err := fmt.Sscan(line, &wall, &cpu); err != nil {
		return fmt.Errorf("reference: %q: %w", line, err)
	}
	r.wall = append(r.wall, float64(wall))
	r.cpu = append(r.cpu, float64(cpu))
	return nil
}

// close ends the reference child and waits for it.
func (r *reference) close() error {
	defer r.cancel()
	r.cmd.in.Close()
	io.Copy(io.Discard, r.cmd.out) //nolint:errcheck // draining before Wait
	if err := r.cmd.Wait(); err != nil {
		return fmt.Errorf("reference child: %w", err)
	}
	return nil
}

// scale is what a run's timings are multiplied by to put them in
// reference-host time.
type scale struct{ wall, cpu float64 }

// unscaled leaves timings as measured.
var unscaled = scale{1, 1}

// scale returns the run's factors: refNominal over the median sample's
// wall and CPU time.
func (r *reference) scale() scale {
	return scale{float64(refNominal) / median(r.wall), float64(refNominal) / median(r.cpu)}
}
