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
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/egs-synthesis/egs/internal/datagen/family"
	"github.com/egs-synthesis/egs/internal/load"
	"github.com/egs-synthesis/egs/internal/query"
	"github.com/egs-synthesis/egs/internal/task"
)

// serve-mixed: a real egs-serve process with its default configuration
// (no -solve-delay), driven by a closed loop of serveClients
// connections that each wait for their answer. Every pass boots a fresh
// server (one set-up sample: exec to a healthy /healthz) and replays the
// same fixed request sequence once, so each pass does identical work.
// The sequence mixes three kinds of request:
//   - hot: paper-suite tasks repeated through the pass, which fit the
//     256-entry result cache;
//   - variant: open-world label variants of shared family bases, which
//     adopt the base's snapshot;
//   - cold: distinct closed-world family instances, each a cache miss
//     costing milliseconds of synthesis.
//
// The pass opens with each hot task sent over both connections at once
// (singleflight: one synthesis, one shared answer); the mixed blocks
// follow once all of those have been answered, so every hot repeat in
// them is a cache hit and every other request is distinct.
//
// The counts that must repeat exactly (server.syntheses, the egs
// counters) are taken over the blocks only. egs-serve can synthesize
// one request twice: a request whose result-cache lookup misses just
// before the concurrent leader stores its answer, and whose singleflight
// join comes just after that flight has ended, starts a flight of its
// own. Concurrent identical requests hit this about once in 300 passes,
// so the opening's syntheses are not compared exactly: they are reported
// apart (opening_duplicate_syntheses in the report), and the run fails
// when more than 2 + passes/100 pairs were synthesized twice.

const serveClients = 2

// serveHot are the hot requests: paper-suite tasks whose synthesis
// takes 0.1-1 ms. The set is fixed; the workload seed orders it.
var serveHot = []string{
	"agent", "animals", "callsize", "grandparent", "inflammation", "nested-loops",
	"polysite", "rvcheck", "sequential", "sql25", "traffic", "trains",
}

// The classes of the variant bases and cold instances: chain is left
// out for its heavy-tailed cost (see pinnedChainSeeds).
var serveClasses = []string{"star", "union", "negation", "typed"}

// serveShape sizes one pass: the opening pairs, then blocks laid out as
// serveBlock (h hot, v variant, c cold); each block's variants share
// one base. The blocks' hot slots take whole rounds over the hot tasks.
type serveShape struct {
	blocks, hotKeys           int
	variantDomain, coldDomain int
}

var (
	serveFull  = serveShape{blocks: 16, hotKeys: 12, variantDomain: 96, coldDomain: 128}
	serveQuick = serveShape{blocks: 2, hotKeys: 4, variantDomain: 24, coldDomain: 24}
	serveBlock = "hvchvchvchvchvchvc"
)

// request is one distinct request body.
type request struct {
	kind string // hot, variant, cold
	name string
	body string
}

type serveBench struct {
	seed     uint64
	serveBin string
	reqs     []request // distinct requests
	seq      []int     // the pass: indexes into reqs
	pairs    int       // seq[:pairs] is the opening: each hot task twice
}

func genServeMixed(o options) (bench, error) {
	if o.serveBin == "" {
		return nil, fmt.Errorf("serve-mixed needs -serve-bin")
	}
	sh := serveFull
	if o.quick {
		sh = serveQuick
	}
	r := newRNG(o.seed, "serve-mixed")
	b := &serveBench{seed: o.seed, serveBin: o.serveBin}

	// Hot tasks in a seeded order; the opening sends each one twice.
	var hot []int
	for _, j := range r.perm(len(serveHot))[:sh.hotKeys] {
		path, err := findTask(o.root, serveHot[j])
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		hot = append(hot, len(b.reqs))
		b.seq = append(b.seq, len(b.reqs), len(b.reqs))
		b.reqs = append(b.reqs, request{kind: "hot", name: serveHot[j], body: string(data)})
	}
	b.pairs = len(b.seq)
	slots := sh.blocks * strings.Count(serveBlock, "h")
	if slots%len(hot) != 0 {
		return nil, fmt.Errorf("serve shape: %d hot slots for %d hot tasks", slots, len(hot))
	}
	var hotSeq []int
	for len(hotSeq) < slots {
		for _, j := range r.perm(len(hot)) {
			hotSeq = append(hotSeq, hot[j])
		}
	}
	for blk := 0; blk < sh.blocks; blk++ {
		variants, err := labelVariants(r, serveClasses[blk%len(serveClasses)], sh.variantDomain, strings.Count(serveBlock, "v"))
		if err != nil {
			return nil, err
		}
		for _, slot := range serveBlock {
			switch slot {
			case 'h':
				b.seq = append(b.seq, hotSeq[0])
				hotSeq = hotSeq[1:]
			case 'v':
				b.seq = append(b.seq, len(b.reqs))
				b.reqs = append(b.reqs, variants[0])
				variants = variants[1:]
			case 'c':
				class := serveClasses[r.intn(len(serveClasses))]
				inst, err := family.Generate(family.Spec{Class: class, Domain: sh.coldDomain, Density: 2}, r.next()%1_000_000)
				if err != nil {
					return nil, err
				}
				b.seq = append(b.seq, len(b.reqs))
				b.reqs = append(b.reqs, request{kind: "cold", name: inst.Name, body: inst.Content})
			}
		}
	}
	return b, nil
}

// labelVariants draws one family base and n open-world labellings of
// it: each a different sample of half the intended program's atoms as
// positives and of atoms it does not derive as negatives.
func labelVariants(r *rng, class string, domain, n int) ([]request, error) {
	inst, err := family.Generate(family.Spec{Class: class, Domain: domain, Density: 2}, r.next()%1_000_000)
	if err != nil {
		return nil, err
	}
	rl, err := openWorld(inst.Content)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", inst.Name, err)
	}
	all := rl.positives()
	var out []request
	for v := 0; v < n; v++ {
		var pos []atom
		for i, j := range r.perm(len(all)) {
			if i <= len(all)/2 {
				pos = append(pos, all[j])
			}
		}
		body, err := rl.text(pos, rl.negatives(r, len(all)/2+4))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.Name, err)
		}
		out = append(out, request{kind: "variant", name: fmt.Sprintf("%s-v%d", inst.Name, v), body: body})
	}
	return out, nil
}

func (b *serveBench) digest() string {
	parts := []string{fmt.Sprint(b.seed)}
	for _, i := range b.seq {
		parts = append(parts, b.reqs[i].kind, b.reqs[i].body)
	}
	return inputDigest(parts...)
}

// reply is the part of a /synthesize response the benchmark reads.
type reply struct {
	Status    string `json:"status"`
	Datalog   string `json:"datalog"`
	Error     string `json:"error"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Stats     *struct {
		ContextsExplored int `json:"contexts_explored"`
	} `json:"stats"`
	lat time.Duration
	err error
}

func (rp reply) answer() string { return rp.Status + "\n" + rp.Datalog }

func (b *serveBench) measure(budget time.Duration, minSamples int, tr *tracer) (*phase, error) {
	ph := newPhase()
	answers := make([]string, len(b.reqs)) // pass-1 checked answer per request
	lits := make([]int64, len(b.reqs))     // literals of each checked program
	parsed := map[string]int64{}           // client-side parse counts of the check
	var rs replayStats
	var rss, heap []float64
	var leaderMS float64
	var leaders int
	server := map[string]float64{} // summed /metrics deltas over passes
	byKind := map[string][]float64{}
	openingSyntheses := 0.0
	runtime.LockOSThread() // see startServer
	defer runtime.UnlockOSThread()
	start := time.Now()
	for ph.more(start, budget, minSamples) {
		runtime.GC() // outside timed code, so one pass's garbage is not collected in the next
		srv, boot, err := startServer(b.serveBin)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, boot.Seconds())
		fail := func(err error) (*phase, error) {
			_, _ = srv.stop() // err is the failure to report
			return nil, err
		}
		before, err := srv.metrics()
		if err != nil {
			return fail(err)
		}
		replies := make([]reply, len(b.seq))
		wall := b.opening(srv, tr, ph.passes, replies)
		mid, err := srv.metrics()
		if err != nil {
			return fail(err)
		}
		wall += b.blocks(srv, tr, ph.passes, replies)
		after, err := srv.metrics()
		if err != nil {
			return fail(err)
		}
		h, err := srv.heapMB()
		if err != nil {
			return fail(err)
		}
		peak, err := srv.stop()
		if err != nil {
			return nil, err
		}
		ph.busy += wall
		rss, heap = append(rss, peak), append(heap, h)

		// The exact counts cover the blocks only; see the package
		// comment for the race the opening can hit.
		delta := load.Delta(mid, after)
		for k, v := range load.Delta(before, after) {
			server[k] += v
		}
		openingSyntheses += sumPrefix(load.Delta(before, mid), "egs_syntheses_total")
		counts := map[string]int64{
			"server.syntheses": int64(sumPrefix(delta, "egs_syntheses_total")),
			"egs.rule_evals":   int64(delta["egs_assess_evals_total"]),
			"egs.memo_hits":    int64(delta["egs_assess_memo_hits_total"]),
		}
		if ph.passes == 0 {
			b.checkFirst(replies, answers, lits, tr, &rs, parsed, ph)
		}
		for k, v := range parsed {
			counts[k] = v
		}
		for pos, rp := range replies {
			i := b.seq[pos]
			err := rp.err
			if err == nil && rp.answer() != answers[i] {
				err = fmt.Errorf("%s: answer differs from the checked answer", b.reqs[i].name)
			}
			ph.task(rp.lat, err)
			byKind[b.reqs[i].kind] = append(byKind[b.reqs[i].kind], ph.latMS[len(ph.latMS)-1])
			if !rp.Cached && !rp.Coalesced && rp.Stats != nil {
				if pos >= b.pairs {
					counts["egs.contexts_popped"] += int64(rp.Stats.ContextsExplored)
				}
				leaderMS += float64(rp.lat) / float64(time.Millisecond)
				leaders++
			}
		}
		// Later passes repeat the checked answers, so their programs
		// have the same literals.
		for _, n := range lits {
			counts["program_literals"] += n
		}
		ph.endPass(counts)
	}
	ph.peakRSSMB, ph.retainedMB = median(rss), median(heap)

	kinds := map[string]int{}
	for _, i := range b.seq {
		kinds[b.reqs[i].kind]++
	}
	for k, n := range kinds {
		ph.info["request_share_"+k] = float64(n) / float64(len(b.seq))
		ph.info["latency_p50_ms_"+k] = percentile(byKind[k], 50)
		ph.info["latency_p99_ms_"+k] = percentile(byKind[k], 99)
	}
	// Each opening pair should cost one synthesis; the excess counts
	// the pairs synthesized twice. The race in the package comment
	// allows a few; more means singleflight stopped coalescing, which
	// fails the run.
	dups := int(openingSyntheses) - ph.passes*b.pairs/2
	ph.info["opening_duplicate_syntheses"] = dups
	if allowed := 2 + ph.passes/100; dups > allowed {
		ph.failures = append(ph.failures, fmt.Sprintf("opening: %d pairs synthesized twice in %d passes, at most %d allowed", dups, ph.passes, allowed))
	}
	ph.info["requests_per_pass"] = len(b.seq)
	ph.info["distinct_requests"] = len(b.reqs)
	if tr != nil {
		l := ph.layer
		engineLayers(ph, tr, rs, ph.exact["task.facts"])
		passes := float64(ph.passes)
		l["egs.synth_ms"] = histMeanMS(server, "egs_solve_seconds")
		l["server.queue_wait_ms"] = histMeanMS(server, "egs_queue_wait_seconds")
		l["server.solve_ms"] = histMeanMS(server, "egs_solve_seconds")
		if leaders > 0 {
			l["server.overhead_ms"] = leaderMS/float64(leaders) - histMeanMS(server, "egs_synthesis_seconds")
		}
		lookups := server["egs_cache_hits_total"] + server["egs_cache_misses_total"]
		if lookups > 0 {
			l["server.cache_hit_ratio"] = server["egs_cache_hits_total"] / lookups
		}
		snaps := server["egs_snapshot_hits_total"] + server["egs_snapshot_misses_total"] + server["egs_snapshot_fallbacks_total"]
		if snaps > 0 {
			l["server.snapshot_hit_ratio"] = server["egs_snapshot_hits_total"] / snaps
		}
		l["server.singleflight_shared"] = server["egs_singleflight_shared_total"] / passes
		l["server.snapshot_fallbacks"] = server["egs_snapshot_fallbacks_total"] / passes
		l["server.syntheses"] = float64(ph.exact["server.syntheses"])
		l["server.rejected"] = server["egs_queue_rejections_total"] / passes
	}
	return ph, nil
}

// opening sends the opening pairs, each pair over the serveClients
// connections at once, and returns its wall time.
func (b *serveBench) opening(srv *serverProc, tr *tracer, pass int, replies []reply) time.Duration {
	t0 := time.Now()
	for pos := 0; pos < b.pairs; pos += serveClients {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(pos int) {
				defer wg.Done()
				b.send(srv, tr, pass, pos, replies)
			}(pos + c)
		}
		wg.Wait()
	}
	return time.Since(t0)
}

// blocks sends the rest of the sequence over the same keep-alive
// connections, each taking the next request when its previous answer
// has arrived, and returns its wall time.
func (b *serveBench) blocks(srv *serverProc, tr *tracer, pass int, replies []reply) time.Duration {
	t0 := time.Now()
	var next atomic.Int64
	next.Store(int64(b.pairs))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(next.Add(1)) - 1
				if pos >= len(b.seq) {
					return
				}
				b.send(srv, tr, pass, pos, replies)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

func (b *serveBench) send(srv *serverProc, tr *tracer, pass, pos int, replies []reply) {
	sp := tr.begin("server.request", -1, pass*len(b.seq)+pos)
	replies[pos] = srv.synthesize(b.reqs[b.seq[pos]].body)
	tr.end(sp)
}

// checkFirst checks the first pass: each distinct request's first
// answer is re-parsed and checked against its task, every other reply
// to that request must repeat it, and (traced) the checked programs are
// replayed and rendered to attribute the engine layers.
func (b *serveBench) checkFirst(replies []reply, answers []string, lits []int64, tr *tracer, rs *replayStats, counts map[string]int64, ph *phase) {
	for pos, rp := range replies {
		i := b.seq[pos]
		if rp.err != nil || answers[i] != "" {
			continue
		}
		req := b.reqs[i]
		sp := tr.begin("task.parse", -1, i)
		tk, err := task.Parse(strings.NewReader(req.body))
		tr.end(sp)
		if err != nil {
			ph.failures = append(ph.failures, fmt.Sprintf("%s: %v", req.name, err))
			continue
		}
		counts["task.facts"] += int64(tk.RawInputCount)
		counts["relation.tuple_ids"] += int64(tk.Input.NumIDs())
		var q query.UCQ
		if rp.Status == "sat" {
			if q, err = parseProgram(rp.Datalog, tk); err == nil {
				err = checkVerdict(tk, false, q)
			}
		} else {
			err = checkVerdict(tk, true, q)
		}
		if err == nil && tr != nil {
			if _, err = renderTraced(tr, -1, i, q, tk); err == nil {
				err = replay(tr, -1, i, q, tk.Input, rs)
			}
		}
		if err != nil {
			ph.failures = append(ph.failures, fmt.Sprintf("%s (%s): %v", req.name, req.kind, err))
			answers[i] = "failed the check"
			continue
		}
		answers[i] = rp.answer()
		lits[i] = int64(q.Size())
	}
}

func sumPrefix(m load.Snapshot, name string) float64 {
	s := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// histMeanMS is a histogram's mean from its _sum and _count deltas;
// bucket-interpolated quantiles are never used.
func histMeanMS(m map[string]float64, name string) float64 {
	if n := m[name+"_count"]; n > 0 {
		return 1000 * m[name+"_sum"] / n
	}
	return 0
}

// serverProc is a running egs-serve child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	logs   sync.WaitGroup // drains the server's log output
}

var listenAddr = regexp.MustCompile(`addr=(\S+)`)

// startServer boots egs-serve on a free loopback port and returns once
// /healthz answers 200, with the time from exec to healthy.
func startServer(bin string) (*serverProc, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The server dies with the thread that started it, so it cannot
	// outlive a benchmark that is killed; serveBench.measure keeps that
	// thread alive by locking its goroutine to it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, client: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, "listening") {
			if m := listenAddr.FindStringSubmatch(line); m != nil {
				s.base = "http://" + m[1]
				break
			}
		}
	}
	s.logs.Add(1)
	go func() {
		defer s.logs.Done()
		_, _ = io.Copy(io.Discard, stderr) // the log lines are not needed
	}()
	if s.base == "" {
		_, _ = s.stop()
		return nil, 0, fmt.Errorf("egs-serve exited before listening")
	}
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			_, _ = s.stop()
			return nil, 0, fmt.Errorf("egs-serve not healthy after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// synthesize posts one .task body and reads the answer. A non-200
// status is an error: it counts against correct_pct.
func (s *serverProc) synthesize(body string) reply {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/synthesize", "text/plain", strings.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(t0)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{lat: time.Since(t0)}
	if err != nil {
		rp.err = err
		return rp
	}
	if err := json.Unmarshal(data, &rp); err != nil {
		rp.err = fmt.Errorf("decoding response: %w", err)
		return rp
	}
	if resp.StatusCode != http.StatusOK {
		rp.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, rp.Error)
	}
	return rp
}

// metrics scrapes /metrics.
func (s *serverProc) metrics() (load.Snapshot, error) {
	return load.Scrape(s.client, s.base+"/metrics")
}

// heapMB forces a collection in the server (pprof's gc=1) and reads the
// live heap from the profile's MemStats footer.
func (s *serverProc) heapMB() (float64, error) {
	data, err := s.get("/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if v, ok := strings.CutPrefix(string(line), "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("heap profile has no HeapAlloc line")
}

func (s *serverProc) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return data, err
}

// stop shuts the server down gracefully, waits for it to exit, and
// returns its peak resident set in MB.
func (s *serverProc) stop() (float64, error) {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = s.cmd.Process.Kill()
	}
	s.logs.Wait()
	err := s.cmd.Wait()
	peak := 0.0
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return peak, fmt.Errorf("egs-serve: %w", err)
	}
	return peak, nil
}
