package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// Client is the typed morphd client: it submits queries, reads the
// ndjson response stream, rehydrates typed QueryErrors, and retries —
// with capped exponential backoff plus jitter — only the retryable
// classes (queue_full, quota_exhausted, overloaded, draining) and
// transport-level failures. Fatal classes (bad_request, over_budget,
// deadline, canceled, panic, internal) surface immediately: retrying a
// query that will fail the same way only adds load.
type Client struct {
	// Base is the server base URL, e.g. "http://127.0.0.1:7421".
	Base string
	// Token is the client identity for fairness quotas
	// (X-Morph-Client); empty shares the anonymous bucket.
	Token string
	// HTTP is the transport (nil = http.DefaultClient). Leave its
	// Timeout zero: per-query deadlines travel via context so streamed
	// responses aren't cut off mid-read.
	HTTP *http.Client
	// Retries caps retry attempts after the first try (0 = no retries).
	Retries int
	// Backoff is the first retry delay; each retry doubles it up to
	// BackoffCap. Jitter (±50%) decorrelates synchronized clients. The
	// server's retry-after hint, when larger, wins.
	Backoff    time.Duration
	BackoffCap time.Duration
	// OnEvent observes stream progress events (queued, started) as they
	// arrive; nil ignores them.
	OnEvent func(StreamEvent)

	// rng overrides the jitter source in tests (nil = global rand).
	rng *rand.Rand
	// maxLine overrides the stream's line bound in tests (0 = 64 MiB).
	maxLine int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) backoff() (first, cap time.Duration) {
	first = c.Backoff
	if first <= 0 {
		first = 100 * time.Millisecond
	}
	cap = c.BackoffCap
	if cap <= 0 {
		cap = 5 * time.Second
	}
	return first, cap
}

// IsRetryable reports whether err is a transient condition worth
// resending the identical query for: a retryable QueryError or a
// transport failure (connection refused/reset — the server may be
// restarting or briefly unreachable).
func IsRetryable(err error) bool {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe.Retryable
	}
	// Context expiry is the caller's deadline, never retryable.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te transportError
	return errors.As(err, &te)
}

// transportError wraps connection-level failures so IsRetryable can tell
// them apart from protocol-level fatals.
type transportError struct{ err error }

func (e transportError) Error() string { return "server: transport: " + e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

// Query submits req and blocks until a terminal outcome, retrying
// retryable failures within ctx's deadline. The returned error is a
// *QueryError for typed failures (errors.As to inspect code, partial
// counts, and the interrupted run's report).
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	res, _, err := c.query(ctx, req)
	return res, err
}

// QueryAttempts is Query also reporting how many attempts were used.
func (c *Client) QueryAttempts(ctx context.Context, req QueryRequest) (*QueryResult, int, error) {
	return c.query(ctx, req)
}

func (c *Client) query(ctx context.Context, req QueryRequest) (*QueryResult, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, fmt.Errorf("server: encode request: %w", err)
	}
	first, capd := c.backoff()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, attempt, fmt.Errorf("%w (deadline while retrying: %v)", lastErr, err)
			}
			return nil, attempt, err
		}
		res, err := c.do(ctx, body)
		if err == nil {
			return res, attempt + 1, nil
		}
		lastErr = err
		if attempt >= c.Retries || !IsRetryable(err) {
			return nil, attempt + 1, err
		}
		d := first << uint(attempt)
		if d > capd || d <= 0 {
			d = capd
		}
		if d = c.jitter(d); d > capd {
			d = capd
		}
		var qe *QueryError
		if errors.As(err, &qe) && qe.RetryAfter > d {
			d = qe.RetryAfter
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, attempt + 1, fmt.Errorf("%w (deadline while backing off: %v)", lastErr, ctx.Err())
		}
	}
}

// jitter spreads d over [d/2, 3d/2) so synchronized clients decorrelate;
// the retry loop clamps the result to BackoffCap so the documented cap
// holds.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	var f float64
	if c.rng != nil {
		f = c.rng.Float64()
	} else {
		f = rand.Float64()
	}
	return d/2 + time.Duration(f*float64(d))
}

// do performs one attempt: POST the query, then read the stream to its
// terminal event (or decode the pre-admission rejection).
func (c *Client) do(ctx context.Context, body []byte) (*QueryResult, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.Token != "" {
		httpReq.Header.Set(ClientTokenHeader, c.Token)
	}
	resp, err := c.http().Do(httpReq)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, transportError{err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode != http.StatusOK {
		// Pre-admission rejection: one JSON error event, real status.
		var ev StreamEvent
		if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil || ev.Error == nil {
			return nil, transportError{fmt.Errorf("status %s with undecodable error body", resp.Status)}
		}
		ev.Error.normalize()
		return nil, ev.Error
	}

	// Admitted: ndjson stream; the last line is result or error. The line
	// buffer starts at the size of a lean result and doubles up to the
	// bound for the rare long line (a result carrying its report).
	maxLine := c.maxLine
	if maxLine == 0 {
		maxLine = 64 << 20
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 512), maxLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, transportError{fmt.Errorf("bad stream line: %w", err)}
		}
		switch ev.Type {
		case EventResult:
			if ev.Result == nil {
				return nil, transportError{errors.New("result event without payload")}
			}
			return ev.Result, nil
		case EventError:
			if ev.Error == nil {
				return nil, transportError{errors.New("error event without payload")}
			}
			ev.Error.normalize()
			return nil, ev.Error
		default:
			if c.OnEvent != nil {
				c.OnEvent(ev)
			}
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, transportError{fmt.Errorf("stream truncated: %w", err)}
	}
	return nil, transportError{errors.New("stream ended without a terminal event")}
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(httpReq)
	if err != nil {
		return nil, transportError{err}
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, transportError{err}
	}
	return &h, nil
}
