package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/overload"
)

// TestOverloadRetryAfterHeaders locks in the backpressure-header
// satellite: 429 (overload shed) and 504 (deadline) responses both carry
// a Retry-After hint.
func TestOverloadRetryAfterHeaders(t *testing.T) {
	// 429: a one-slot limiter with a slow predictor sheds concurrent
	// surplus immediately.
	_, base := newTestServer(t, Config{
		Shards: 1, QueueDepth: 64, BatchMax: 1, BatchWindow: 100 * time.Microsecond,
		PredictStall: 200 * time.Millisecond,
		Overload: &overload.Config{
			Limiter: overload.LimiterConfig{Initial: 1, Min: 1, Max: 1},
		},
	})
	client := &http.Client{}
	body, _ := json.Marshal(EstimateRequest{Samples: []SampleJSON{sample("m1", 1, 1)}})
	var mu sync.Mutex
	got429 := 0
	retryAfterOK := true
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				got429++
				if resp.Header.Get("Retry-After") == "" {
					retryAfterOK = false
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got429 == 0 {
		t.Fatal("no 429 from a one-slot limiter under 6 concurrent requests")
	}
	if !retryAfterOK {
		t.Fatal("429 response missing Retry-After header")
	}

	// 504: an impossible per-request deadline always expires in the
	// batch window + predictor stall.
	_, base2 := newTestServer(t, Config{
		Shards: 1, BatchMax: 4, PredictStall: 30 * time.Millisecond,
	})
	req, _ := json.Marshal(EstimateRequest{
		Samples: []SampleJSON{sample("m1", 1, 1)}, DeadlineMS: 1,
	})
	resp, err := client.Post(base2+"/v1/estimate", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 under a 1ms deadline", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 response missing Retry-After header")
	}
}
