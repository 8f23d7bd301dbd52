package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"gnbody/internal/serve"
)

// The open-loop load generator: a child process of this binary, so that its
// sleeping senders are woken by the operating system's scheduler and not by
// the Go scheduler of the process whose ranks keep every processor busy.
// The parent passes the schedule in an environment variable's file and
// reads one JSON report per submission from the child's standard output.

const loadgenEnv = "GNBODY_BENCH_LOADGEN"

// loadSchedule is what the parent hands the child.
type loadSchedule struct {
	URL     string    `json:"url"`
	Clients int       `json:"clients"` // sender goroutines, one connection each
	Start   int64     `json:"start"`   // phase start, Unix nanoseconds
	Bodies  []string  `json:"bodies"`  // request body files
	Jobs    []loadJob `json:"jobs"`
}

type loadJob struct {
	Payload int     `json:"payload"`
	Due     float64 `json:"due"` // seconds after Start
}

// loadReport is one submission as the child saw it. Times are Unix
// nanoseconds.
type loadReport struct {
	Job      int    `json:"job"`
	Sent     int64  `json:"sent"`
	Accepted int64  `json:"accepted"`
	Status   int    `json:"status"`
	ID       string `json:"id,omitempty"`
	Error    string `json:"error,omitempty"`
}

// runLoadgen starts the child on sched, hands every report to onReport as
// it arrives, and returns when the child has exited.
func runLoadgen(sched loadSchedule, onReport func(loadReport)) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(sched.Bodies[0]), "schedule-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := json.NewEncoder(f).Encode(sched); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), loadgenEnv+"="+f.Name())
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	sc := bufio.NewScanner(out)
	var parseErr error
	for sc.Scan() {
		var r loadReport
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Job < 0 || r.Job >= len(sched.Jobs) {
			parseErr = fmt.Errorf("load generator: bad report %q", sc.Text())
			continue
		}
		onReport(r)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	return parseErr
}

// childMain runs a child's side — load generator or processor spinner —
// when the environment asks for it, and reports whether it did.
func childMain() bool {
	if os.Getenv(keepAwakeEnv) != "" {
		keepAwakeMain()
		return true
	}
	path := os.Getenv(loadgenEnv)
	if path == "" {
		return false
	}
	if err := loadgen(path); err != nil {
		fmt.Fprintln(os.Stderr, "load generator:", err)
		os.Exit(1)
	}
	return true
}

func loadgen(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sched loadSchedule
	if err := json.Unmarshal(raw, &sched); err != nil {
		return err
	}
	bodies := make([][]byte, len(sched.Bodies))
	for i, p := range sched.Bodies {
		if bodies[i], err = os.ReadFile(p); err != nil {
			return err
		}
	}
	start := time.Unix(0, sched.Start)
	var mu sync.Mutex // serialises report lines
	w := bufio.NewWriter(os.Stdout)
	report := func(r loadReport) {
		line, _ := json.Marshal(r)
		mu.Lock()
		w.Write(line)
		w.WriteByte('\n')
		w.Flush()
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < sched.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for i := c; i < len(sched.Jobs); i += sched.Clients {
				job := sched.Jobs[i]
				time.Sleep(time.Until(start.Add(time.Duration(job.Due * float64(time.Second)))))
				r := loadReport{Job: i, Sent: time.Now().UnixNano()}
				resp, err := client.Post(sched.URL, "application/json", bytes.NewReader(bodies[job.Payload]))
				if err != nil {
					r.Accepted, r.Error = time.Now().UnixNano(), err.Error()
					report(r)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				r.Accepted, r.Status = time.Now().UnixNano(), resp.StatusCode
				var st serve.Status
				if err != nil {
					r.Status, r.Error = 0, err.Error()
				} else if resp.StatusCode != http.StatusAccepted {
					r.Error = string(bytes.TrimSpace(body))
				} else if err := json.Unmarshal(body, &st); err != nil {
					r.Status, r.Error = 0, err.Error()
				}
				r.ID = st.ID
				report(r)
			}
		}(c)
	}
	wg.Wait()
	return nil
}
