package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// Load comes from at most two client goroutines over at most two
// connections per server.
const clientConns = 2

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
		},
	}
}

// reply is one HTTP exchange's outcome.
type reply struct {
	code   int
	body   []byte
	header http.Header
	took   time.Duration
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return reply{code: resp.StatusCode, body: b, header: resp.Header, took: time.Since(start)}, nil
}

// decode unmarshals a reply body, naming the request on failure.
func decode(r reply, v any) error {
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("decoding %d reply: %w", r.code, err)
	}
	return nil
}

// shutdowner is a server-side component with a graceful stop.
type shutdowner interface {
	Shutdown(ctx context.Context) error
}

// stopServer closes the test server, then drains the component behind it.
func stopServer(srv *httptest.Server, s shutdowner) {
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // a drain timeout only delays exit; jobs are cancelled
}

// sleepUntil waits until t; it returns at once when t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
