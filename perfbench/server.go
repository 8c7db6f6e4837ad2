package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one ppserve process listening on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *logTail
	// exited is closed once the process has exited and cmd.Wait returned.
	exited  chan struct{}
	waitErr error
}

// startServer launches ppserve on an ephemeral loopback port with the
// given extra flags, running Go code on one thread (GOMAXPROCS=1, see
// run), and returns once it answers /healthz.
func startServer(ctx context.Context, bin string, args []string) (*server, error) {
	log := &logTail{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = log
	cmd.Stderr = log
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// perfbench killed without cleanup must not leave ppserve behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ppserve: %w", err)
	}
	s := &server{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	s.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}

	select {
	case addr := <-log.addr:
		s.base = "http://" + addr
	case <-s.exited:
		return nil, fmt.Errorf("ppserve exited during start-up: %v\n%s", s.waitErr, log.tail())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ppserve did not announce its address within 30s\n%s", log.tail())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("ppserve health check: %w", err)
	}
	return s, nil
}

// stop interrupts ppserve (its graceful shutdown path), kills it if it has
// not exited within ten seconds, and returns once the process is gone.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// post sends one request body to path.
func (s *server) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.client.Do(req)
}

// scrape reads ppserve's Prometheus exposition into a series → value map.
func (s *server) scrape(ctx context.Context) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseSeries(string(text)), nil
}

// series maps a Prometheus series (name plus label set, as exposed) to its
// value.
type series map[string]float64

func parseSeries(text string) series {
	m := series{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// sum adds the values of every series called name whose labels include
// each of the given `key="value"` pairs.
func (m series) sum(name string, labels ...string) float64 {
	total := 0.0
	for key, v := range m {
		rest, ok := strings.CutPrefix(key, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// logTail collects ppserve's output: it reports the listening address
// announced at start-up and keeps the last few KiB for error reports.
type logTail struct {
	mu    sync.Mutex
	buf   []byte
	found bool
	addr  chan string
}

const listenPrefix = "ppserve: listening on "

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.found {
		if i := bytes.Index(l.buf, []byte(listenPrefix)); i >= 0 {
			line := l.buf[i+len(listenPrefix):]
			if j := bytes.IndexByte(line, '\n'); j >= 0 {
				l.found = true
				l.addr <- string(line[:j])
			}
		}
	}
	if l.found && len(l.buf) > 8<<10 {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (l *logTail) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}
