package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/egs-synthesis/egs"
)

// TestSingleflightStampede drives N concurrent identical uncached
// requests into the server and checks that exactly one synthesis runs
// (asserted both on the engine hook and on the egs_assess_evals_total
// delta) while every caller receives the same answer.
func TestSingleflightStampede(t *testing.T) {
	const n = 16
	src, err := os.ReadFile(filepath.Join(benchDir, "kinship.task"))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	var calls atomic.Int64
	cfg := Config{
		Workers:   2,
		CacheSize: -1, // disable the result cache: every request is a miss
		synthesize: func(ctx context.Context, tk *egs.Task, o egs.Options) (egs.Result, error) {
			calls.Add(1)
			select {
			case <-gate:
			case <-ctx.Done():
				return egs.Result{}, ctx.Err()
			}
			return egs.Synthesize(ctx, tk, o)
		},
	}
	s, ts := newTestServer(t, cfg)

	results := make(chan *SynthesisResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sr := post(t, ts.URL+"/synthesize", "text/plain", string(src))
			results <- sr
		}()
	}
	// Hold the gate until every follower has joined the flight, so the
	// stampede is genuinely concurrent rather than serialized by the
	// result the leader publishes.
	deadline := time.Now().Add(10 * time.Second)
	for s.mFlightShared.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined the flight", s.mFlightShared.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	if got := calls.Load(); got != 1 {
		t.Errorf("synthesis ran %d times for %d concurrent identical requests, want 1", got, n)
	}
	var datalog string
	coalesced := 0
	for sr := range results {
		if sr.Status != "sat" {
			t.Fatalf("stampede response status %q (%s), want sat", sr.Status, sr.Error)
		}
		if datalog == "" {
			datalog = sr.Datalog
		} else if sr.Datalog != datalog {
			t.Errorf("stampede responses disagree:\n%s\nvs\n%s", datalog, sr.Datalog)
		}
		if sr.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d responses marked coalesced, want %d", coalesced, n-1)
	}
	if got := s.mFlightLeaders.Value(); got != 1 {
		t.Errorf("egs_singleflight_leaders_total = %d, want 1", got)
	}

	// The assess-evals delta must equal that of a single solo solve:
	// the stampede cost one search, not sixteen.
	solo, tsSolo := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	if _, sr := post(t, tsSolo.URL+"/synthesize", "text/plain", string(src)); sr.Status != "sat" {
		t.Fatalf("solo solve status %q", sr.Status)
	}
	if stampede, one := s.mAssessEvals.Value(), solo.mAssessEvals.Value(); stampede != one {
		t.Errorf("egs_assess_evals_total after stampede = %d, want the solo-solve delta %d", stampede, one)
	}
}

// TestSingleflightCancellationDoesNotPoison checks the two lifetime
// guarantees of the flight context: one caller hanging up (even the
// leader) leaves the flight running for the rest, and the engine is
// cancelled only when every caller has gone.
func TestSingleflightCancellationDoesNotPoison(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(benchDir, "kinship.task"))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	engineCtx := make(chan context.Context, 2)
	cfg := Config{
		Workers:   1,
		CacheSize: -1,
		synthesize: func(ctx context.Context, tk *egs.Task, o egs.Options) (egs.Result, error) {
			engineCtx <- ctx
			select {
			case <-gate:
			case <-ctx.Done():
				return egs.Result{}, ctx.Err()
			}
			return egs.Synthesize(ctx, tk, o)
		},
	}
	s, ts := newTestServer(t, cfg)

	issue := func(ctx context.Context, url, body string, out chan<- *SynthesisResponse) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/synthesize", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- nil
			return
		}
		req.Header.Set("Content-Type", "text/plain")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- nil // cancelled caller: no response
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		sr := &SynthesisResponse{}
		if err := json.Unmarshal(b, sr); err != nil {
			t.Errorf("decoding response: %v", err)
			out <- nil
			return
		}
		out <- sr
	}

	// Leader plus two followers on one flight; then the leader's client
	// hangs up mid-synthesis.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderOut := make(chan *SynthesisResponse, 1)
	go issue(leaderCtx, ts.URL, string(src), leaderOut)
	ectx := <-engineCtx // leader's engine run has started
	followerOut := make(chan *SynthesisResponse, 2)
	go issue(context.Background(), ts.URL, string(src), followerOut)
	go issue(context.Background(), ts.URL, string(src), followerOut)
	deadline := time.Now().Add(10 * time.Second)
	for s.mFlightShared.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("followers never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	<-leaderOut
	// The flight must survive the leader's departure: two followers are
	// still waiting.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-ectx.Done():
		t.Fatal("leader cancellation cancelled the shared engine run")
	default:
	}
	close(gate)
	for i := 0; i < 2; i++ {
		sr := <-followerOut
		if sr == nil || sr.Status != "sat" {
			t.Fatalf("follower after leader cancel: %+v", sr)
		}
		if !sr.Coalesced {
			t.Error("follower response not marked coalesced")
		}
	}

	// Second server, fresh gate: when every caller hangs up, the engine
	// must be cancelled rather than left running detached.
	gate2 := make(chan struct{})
	defer close(gate2)
	engineCtx2 := make(chan context.Context, 1)
	cfg2 := Config{
		Workers:   1,
		CacheSize: -1,
		synthesize: func(ctx context.Context, tk *egs.Task, o egs.Options) (egs.Result, error) {
			engineCtx2 <- ctx
			select {
			case <-gate2:
			case <-ctx.Done():
			}
			return egs.Result{}, ctx.Err()
		},
	}
	s2, ts2 := newTestServer(t, cfg2)
	allCtx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	out2 := make(chan *SynthesisResponse, 2)
	go issue(allCtx, ts2.URL, string(src), out2)
	ectx2 := <-engineCtx2
	go issue(allCtx, ts2.URL, string(src), out2)
	for s2.mFlightShared.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second-flight follower never joined")
		}
		time.Sleep(time.Millisecond)
	}
	cancelAll()
	select {
	case <-ectx2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("engine run not cancelled after every caller left")
	}
	<-out2
	<-out2
}

// TestLateJoinAfterCachePutDoesNotResynthesize replays the interleaving
// in which a request misses the result cache just before the previous
// leader's cache.Put, then joins the flight group just after that
// leader's finish. It becomes the leader of a fresh flight; it must
// serve the cached answer instead of synthesizing the key again.
func TestLateJoinAfterCachePutDoesNotResynthesize(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(benchDir, "kinship.task"))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	if _, first := post(t, ts.URL+"/synthesize", "text/plain", string(src)); first.Status != "sat" {
		t.Fatalf("first request status %q (%s)", first.Status, first.Error)
	}
	leaders, evals := s.mFlightLeaders.Value(), s.mAssessEvals.Value()

	// Take the cached answer out, so the next request misses.
	s.cache.mu.Lock()
	el := s.cache.ll.Front()
	entry := el.Value.(*lruEntry)
	s.cache.ll.Remove(el)
	delete(s.cache.items, entry.key)
	s.cache.mu.Unlock()

	// Hold the flight group so the request stops between its cache
	// miss and its join; publish the answer in that window, as the
	// previous leader's Put would.
	s.flights.mu.Lock()
	done := make(chan *SynthesisResponse, 1)
	go func() {
		var sr SynthesisResponse
		if resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(string(src))); err != nil {
			sr.Error = err.Error()
		} else {
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				sr.Error = err.Error()
			}
			resp.Body.Close()
		}
		done <- &sr
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.mCacheMisses.Value() < 2 {
		if time.Now().After(deadline) {
			s.flights.mu.Unlock()
			t.Fatal("second request never missed the cache")
		}
		time.Sleep(time.Millisecond)
	}
	s.cache.Put(entry.key, entry.val)
	s.flights.mu.Unlock()

	sr := <-done
	if sr.Status != "sat" || sr.Datalog != entry.val.(*SynthesisResponse).Datalog {
		t.Fatalf("late joiner got status %q (%s) datalog %q, want the cached answer", sr.Status, sr.Error, sr.Datalog)
	}
	if got := s.mFlightLeaders.Value(); got != leaders {
		t.Errorf("egs_singleflight_leaders_total moved from %d to %d: the key was synthesized again", leaders, got)
	}
	if got := s.mAssessEvals.Value(); got != evals {
		t.Errorf("egs_assess_evals_total moved from %d to %d: the key was synthesized again", evals, got)
	}
}
