// Package client is the Go client for clusterd's HTTP API (package
// server). It is used by the end-to-end tests, by the clusterlb
// balancer and by the serve workloads of bench/; the request and
// response types are the server's own, so the two cannot drift apart.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"clustersched/internal/httpbody"
	"clustersched/internal/server"
)

// Client talks to one clusterd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8425"). httpClient may be nil for
// http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
}

// BaseURL returns the daemon address this client talks to.
//
//schedvet:test-api server's tests post raw requests to the address it holds
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx reply, carrying the server's structured error
// body when one was sent.
type APIError struct {
	Status int
	server.ErrorResponse
}

// Error renders the status and the server's message.
func (e *APIError) Error() string {
	if e.ErrorResponse.Error != "" {
		return fmt.Sprintf("server: %d: %s", e.Status, e.ErrorResponse.Error)
	}
	return fmt.Sprintf("server: unexpected status %d", e.Status)
}

// do posts req as JSON (or GETs when req is nil) and decodes a 200
// reply into out. It returns the raw body and the X-Cache header.
func (c *Client) do(ctx context.Context, method, path string, req, out any) (body []byte, xcache string, err error) {
	var payload io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return nil, "", err
		}
		payload = bytes.NewReader(b)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, payload)
	if err != nil {
		return nil, "", err
	}
	if req != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = httpbody.Read(io.LimitReader(resp.Body, maxReply), resp.ContentLength)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode}
		_ = json.Unmarshal(body, &apiErr.ErrorResponse) // best effort; keep the status regardless
		return nil, "", apiErr
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return nil, "", fmt.Errorf("decoding %s reply: %w", path, err)
		}
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// maxReply caps the reply bytes do reads.
const maxReply = 64 << 20

// Schedule runs one loop through /v1/schedule. cached reports whether
// the daemon served the result from its cache (hit or coalesced)
// rather than running the pipeline for this request.
//
//schedvet:test-api server's tests drive /v1/schedule through it
func (c *Client) Schedule(ctx context.Context, req server.ScheduleRequest) (resp *server.ScheduleResponse, cached bool, err error) {
	resp = new(server.ScheduleResponse)
	_, xcache, err := c.do(ctx, http.MethodPost, "/v1/schedule", req, resp)
	if err != nil {
		return nil, false, err
	}
	return resp, xcache == "hit" || xcache == "coalesced", nil
}

// ScheduleRaw is Schedule returning the undecoded response body, for
// byte-level comparisons.
func (c *Client) ScheduleRaw(ctx context.Context, req server.ScheduleRequest) (body []byte, xcache string, err error) {
	return c.do(ctx, http.MethodPost, "/v1/schedule", req, nil)
}

// Batch runs a multi-loop payload through /v1/batch.
//
//schedvet:test-api server's tests drive /v1/batch through it
func (c *Client) Batch(ctx context.Context, req server.BatchRequest) (*server.BatchResponse, error) {
	resp := new(server.BatchResponse)
	if _, _, err := c.do(ctx, http.MethodPost, "/v1/batch", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Compile runs a whole translation unit through /v1/compile: every
// loop comes back as an emitted kernel (or a per-loop error), with
// per-loop cache accounting.
//
//schedvet:test-api server's tests drive /v1/compile through it
func (c *Client) Compile(ctx context.Context, req server.CompileRequest) (*server.CompileResponse, error) {
	resp := new(server.CompileResponse)
	if _, _, err := c.do(ctx, http.MethodPost, "/v1/compile", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Lint runs the static-analysis passes through /v1/lint.
//
//schedvet:test-api server's tests drive /v1/lint through it
func (c *Client) Lint(ctx context.Context, req server.LintRequest) (*server.LintResponse, error) {
	resp := new(server.LintResponse)
	if _, _, err := c.do(ctx, http.MethodPost, "/v1/lint", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Fleetz fetches the worker's /fleetz heartbeat snapshot (used by
// the clusterlb balancer's membership poller).
func (c *Client) Fleetz(ctx context.Context) (*server.FleetzResponse, error) {
	resp := new(server.FleetzResponse)
	if _, _, err := c.do(ctx, http.MethodGet, "/fleetz", nil, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Stats fetches the /statsz snapshot.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	resp := new(server.StatsResponse)
	if _, _, err := c.do(ctx, http.MethodGet, "/statsz", nil, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	_, _, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}
