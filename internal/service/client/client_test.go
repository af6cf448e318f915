package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mrdspark/internal/fault"
	"mrdspark/internal/service"
)

// TestRetriesShedResponses verifies the client absorbs 503 sheds with
// backoff and succeeds once capacity frees up.
func TestRetriesShedResponses(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(service.Healthz{Status: "ok"})
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Retry: &fault.Schedule{MaxFetchRetries: 3, RetryBackoffUs: 10}})
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("Healthz after sheds: %v", err)
	}
	if h.Status != "ok" || calls.Load() != 3 {
		t.Errorf("status=%q calls=%d, want ok after 3 calls", h.Status, calls.Load())
	}
}

// TestRetriesExhausted checks a persistent shed fails after the budget.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Retry: &fault.Schedule{MaxFetchRetries: 2, RetryBackoffUs: 10}})
	_, err := c.Healthz(context.Background())
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("err = %v, want wrapped 503", err)
	}
	if calls.Load() != 3 { // initial attempt + 2 retries
		t.Errorf("calls = %d, want 3", calls.Load())
	}
}

// TestNoRetryOnClientError checks 4xx responses fail fast: retrying a
// semantic error would just replay the mistake.
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no session"})
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Retry: &fault.Schedule{RetryBackoffUs: 10}})
	_, err := c.Advance(context.Background(), "s1", 0)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Msg != "no session" {
		t.Errorf("err = %v, want 404 'no session'", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want exactly 1 (no retry on 4xx)", calls.Load())
	}
}

// TestDefaultBackoffSchedule checks a nil schedule falls back to the
// fault package defaults.
func TestDefaultBackoffSchedule(t *testing.T) {
	c := New(Config{BaseURL: "http://invalid"})
	if got := c.retry.Retries(); got != fault.DefaultFetchRetries {
		t.Errorf("default retries = %d, want %d", got, fault.DefaultFetchRetries)
	}
	if got := c.retry.Backoff(); got != fault.DefaultRetryBackoffUs {
		t.Errorf("default backoff = %d, want %d", got, fault.DefaultRetryBackoffUs)
	}
}

// TestRetryAfterHonored: a 503 carrying a fractional Retry-After must
// hold the retry back at least that long (lenient float parse).
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.2")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Retry: &fault.Schedule{MaxFetchRetries: 2, RetryBackoffUs: 10}, JitterSeed: 1})
	start := time.Now()
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("retry fired after %v, Retry-After asked for 200ms", elapsed)
	}
}

// TestMaxRetryWaitCapsTotalTime: a dead endpoint with a huge retry
// budget must still fail within MaxRetryWait.
func TestMaxRetryWaitCapsTotalTime(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:      ts.URL,
		Retry:        &fault.Schedule{MaxFetchRetries: 100, RetryBackoffUs: 1000},
		MaxRetryWait: 150 * time.Millisecond,
		JitterSeed:   1,
	})
	start := time.Now()
	_, err := c.Healthz(context.Background())
	if err == nil {
		t.Fatal("want error from a permanently shedding server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("call took %v despite a 150ms retry budget", elapsed)
	}
}

// TestParseRetryAfter covers the lenient header grammar.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{"0.5", 500 * time.Millisecond},
		{" 2 ", 2 * time.Second},
		{"-1", 0},
		{"soon", 0},
		{time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// A future HTTP-date yields roughly the interval until then.
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 4*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, want ~3s", got)
	}
}
