// Serve-client: a minimal netpartd API client. Submits one
// asynchronous run, tails its Server-Sent-Events progress stream to
// stderr, and prints the finished result in the negotiated encoding —
// the wire-level counterpart of examples/experiment-runner.
//
// Start the daemon, then run the client:
//
//	go run ./cmd/netpartd -addr localhost:8080 &
//	go run ./examples/serve-client -addr localhost:8080 -id figure3
//	go run ./examples/serve-client -id table6 -format markdown
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "netpartd address")
	id := flag.String("id", "figure3", "experiment ID to run")
	workers := flag.Int("workers", 0, "worker-pool bound for the run (0 = server default)")
	format := flag.String("format", "json", "result encoding: json, csv or markdown")
	flag.Parse()
	log.SetFlags(0)
	base := "http://" + *addr

	// Submit the run.
	body, err := json.Marshal(map[string]any{"experiment": *id, "workers": *workers})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	accepted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("submit: %s: %s", resp.Status, accepted)
	}
	var job struct {
		ID     string `json:"id"`
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(accepted, &job); err != nil {
		log.Fatal(err)
	}
	log.Printf("submitted %s as %s", job.Key, job.ID)

	// Tail the SSE progress stream until the terminal "done" event.
	events, err := http.Get(base + "/v1/runs/" + job.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer events.Body.Close()
	if events.StatusCode != http.StatusOK {
		log.Fatalf("events: %s", events.Status)
	}
	status := tail(events.Body)
	if status != "done" {
		log.Fatalf("run finished with status %q", status)
	}

	// Fetch the result in the requested encoding.
	res, err := http.Get(base + "/v1/runs/" + job.ID + "?format=" + *format)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Body.Close()
	log.Printf("result (%s, ETag %s):", res.Header.Get("Content-Type"), res.Header.Get("ETag"))
	if _, err := io.Copy(os.Stdout, res.Body); err != nil {
		log.Fatal(err)
	}
}

// tail prints progress frames from an SSE stream and returns the
// terminal status from the "done" event.
func tail(r io.Reader) string {
	sc := bufio.NewScanner(r)
	var name, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && name != "":
			switch name {
			case "progress":
				var p struct {
					Run   string `json:"run"`
					Done  int    `json:"done"`
					Total int    `json:"total"`
				}
				if json.Unmarshal([]byte(data), &p) == nil {
					fmt.Fprintf(os.Stderr, "\r%s %d/%d", p.Run, p.Done, p.Total)
					if p.Done == p.Total {
						fmt.Fprintln(os.Stderr)
					}
				}
			case "done":
				var d struct {
					Status string `json:"status"`
					Error  string `json:"error"`
				}
				if json.Unmarshal([]byte(data), &d) == nil {
					if d.Error != "" {
						log.Printf("run error: %s", d.Error)
					}
					return d.Status
				}
				return ""
			}
			name, data = "", ""
		}
	}
	return ""
}
