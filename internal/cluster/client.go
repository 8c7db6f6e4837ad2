package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/faultinject"
	"repro/internal/govern"
)

// Wire types of the membership endpoints.

// RegisterRequest is the POST /v1/cluster/register body.
type RegisterRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Lease is the register/heartbeat response: the granted lease and the
// worker's registration epoch.
type Lease struct {
	TTLMillis int64  `json:"ttlMillis"`
	Epoch     uint64 `json:"epoch"`
}

// HeartbeatRequest is the POST /v1/cluster/heartbeat body. Drain announces
// a graceful shutdown: the coordinator stops routing new ranges to the
// worker while its in-flight ranges finish.
type HeartbeatRequest struct {
	ID    string `json:"id"`
	Drain bool   `json:"drain"`
}

// Agent is the worker-side membership client: it registers a worker with
// the coordinator and keeps the lease renewed, re-registering whenever the
// coordinator forgets it (lease expiry, coordinator restart) — the rejoin
// path.
type Agent struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// Self is this worker's advertised base URL.
	Self string
	// ID names this worker.
	ID string
	// Client performs the HTTP calls (nil = a 5-second-timeout client;
	// membership calls are small and must not hang a drain).
	Client *http.Client
	// Interval overrides the heartbeat period (0 = a third of the lease TTL
	// granted at registration).
	Interval time.Duration
	// Log receives membership events (nil = discard).
	Log *slog.Logger
}

// Run registers with the coordinator (retrying with backoff until the
// coordinator answers) and then heartbeats until ctx ends. It returns
// ctx.Err(); callers typically follow with Deregister on a fresh context.
func (a *Agent) Run(ctx context.Context) error {
	log := a.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	client := a.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}

	var lease Lease
	backoff := 500 * time.Millisecond
	for step := 0; ; step++ {
		l, err := a.register(ctx, client)
		if err == nil {
			lease = l
			log.Info("cluster: registered with coordinator",
				"coordinator", a.Coordinator, "id", a.ID, "epoch", l.Epoch)
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Jitter decorrelates the retry storm of a worker fleet restarted
		// together, deterministically per worker ID so a given worker's
		// schedule is reproducible.
		wait := jitterBackoff(a.ID, step, backoff)
		log.Warn("cluster: registration failed, retrying",
			"coordinator", a.Coordinator, "error", err, "backoff", wait)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff = min(2*backoff, 10*time.Second)
	}

	interval := a.Interval
	if interval <= 0 {
		interval = time.Duration(lease.TTLMillis) * time.Millisecond / 3
		if interval <= 0 {
			interval = DefaultTTL / 3
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		status, err := a.heartbeat(ctx, client, false)
		switch {
		case err != nil && ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			log.Warn("cluster: heartbeat failed", "error", err)
		case status == http.StatusNotFound:
			// The coordinator forgot us (expired lease or restart): rejoin.
			if l, err := a.register(ctx, client); err == nil {
				log.Info("cluster: re-registered with coordinator", "epoch", l.Epoch)
			} else {
				log.Warn("cluster: re-registration failed", "error", err)
			}
		}
	}
}

// Deregister announces a graceful exit: a draining heartbeat (stop routing
// to me) followed by deregistration (forget me). Safe to call with a fresh
// context after Run returned.
func (a *Agent) Deregister(ctx context.Context) error {
	client := a.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if _, err := a.heartbeat(ctx, client, true); err != nil {
		return err
	}
	body, _ := json.Marshal(HeartbeatRequest{ID: a.ID})
	_, err := a.post(ctx, client, "/v1/cluster/deregister", body)
	return err
}

func (a *Agent) register(ctx context.Context, client *http.Client) (Lease, error) {
	body, _ := json.Marshal(RegisterRequest{ID: a.ID, URL: a.Self})
	resp, err := a.post(ctx, client, "/v1/cluster/register", body)
	if err != nil {
		return Lease{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return Lease{}, fmt.Errorf("register: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var l Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return Lease{}, fmt.Errorf("register: decoding lease: %w", err)
	}
	return l, nil
}

// jitterBackoff spreads backoff step `step` of worker `id` into
// [0.5, 1.5) of the nominal delay, a pure function of (id, step): two
// workers retry at decorrelated moments while each worker's own schedule
// is reproducible.
func jitterBackoff(id string, step int, d time.Duration) time.Duration {
	return govern.Jitter(id, uint64(step), d/2, 2)
}

// heartbeat renews the lease; it returns the HTTP status so Run can tell
// "coordinator forgot us" (404 → rejoin) from transport failure.
func (a *Agent) heartbeat(ctx context.Context, client *http.Client, drain bool) (int, error) {
	if err := faultinject.Hit(faultinject.PointHeartbeat); err != nil {
		return 0, err
	}
	body, _ := json.Marshal(HeartbeatRequest{ID: a.ID, Drain: drain})
	resp, err := a.post(ctx, client, "/v1/cluster/heartbeat", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	return resp.StatusCode, nil
}

func (a *Agent) post(ctx context.Context, client *http.Client, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}
