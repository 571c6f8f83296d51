// Command pacload is a resumable job tail: it streams one job's
// server-sent events from a pacgw gateway (or a single pacd node) to
// stdout and survives connection drops (and even a backend crash/reboot
// behind the gateway) by reconnecting with the standard Last-Event-ID
// header, so the server's bounded replay ring fills the gap instead of
// losing progress lines. It exits once the job's terminal done event
// arrives.
//
// Usage:
//
//	pacload -gateway http://127.0.0.1:8090 -follow w0-j000017
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

func main() {
	gatewayURL := flag.String("gateway", "http://127.0.0.1:8090", "gateway (or pacd) base URL")
	follow := flag.String("follow", "", "ID of the job whose SSE stream to follow (reconnects with Last-Event-ID)")
	flag.Parse()

	if *follow == "" {
		fmt.Fprintln(os.Stderr, "pacload: -follow is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := followJob(*gatewayURL, *follow); err != nil {
		fail(err)
	}
}

// followJob tails one job's server-sent events until the terminal done
// event. Dropped connections — a bounced gateway, a crashed-and-replayed
// backend — resume where they left off: the last seen event ID goes back
// as Last-Event-ID and the server replays only what was missed from its
// retention ring.
func followJob(base, jobID string) error {
	url := strings.TrimRight(base, "/") + "/v1/jobs/" + jobID + "/events"
	client := &http.Client{} // no timeout: the stream lives as long as the job
	lastID := ""
	for failures := 0; ; {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/event-stream")
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
			// A 404 right after a crash means the replayed job has not been
			// re-listed yet; keep retrying like a dropped connection.
		}
		if err != nil {
			failures++
			if failures > 30 {
				return fmt.Errorf("following %s: %w", jobID, err)
			}
			fmt.Fprintf(os.Stderr, "pacload: follow reconnect after error: %v\n", err)
			time.Sleep(time.Second)
			continue
		}
		failures = 0
		done, serr := streamEvents(resp.Body, &lastID)
		resp.Body.Close()
		if done {
			return nil
		}
		if serr != nil {
			fmt.Fprintf(os.Stderr, "pacload: follow stream broke, resuming after id %s: %v\n", lastID, serr)
		} else {
			fmt.Fprintf(os.Stderr, "pacload: follow stream ended early, resuming after id %s\n", lastID)
		}
		time.Sleep(time.Second)
	}
}

// streamEvents consumes one SSE connection, printing each event's data
// to stdout and tracking the last event ID for resume. It returns done
// once the terminal event arrives; any earlier disconnect leaves done
// false so the caller reconnects.
func streamEvents(r io.Reader, lastID *string) (done bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line dispatches the accumulated event
			if len(data) > 0 {
				fmt.Println(strings.Join(data, "\n"))
			}
			if event == "done" {
				return true, nil
			}
			event, data = "", nil
		case strings.HasPrefix(line, "id:"):
			*lastID = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[len("data:"):]))
		}
	}
	return false, sc.Err()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pacload:", err)
	os.Exit(1)
}
