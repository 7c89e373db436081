package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/serve"
	"github.com/hotgauge/boreas/internal/sim"
)

// clients is the number of load-generating goroutines, each with its own
// keep-alive HTTP connection: one per CPU of the 2-CPU reference box.
const clients = 2

// spanHeader carries the client's request span id to the handler wrapper,
// so the handler span is recorded as the request span's child.
const spanHeader = "X-Perfbench-Span"

// replayConfig shapes a serve workload: a fleet of steady chips replaying
// recorded telemetry in fixed batches, optionally with churn.
type replayConfig struct {
	chips    int // steady chips
	batch    int // steady chips per request
	traces   int // distinct recorded telemetry traces (chip c replays c % traces)
	ticks    int // recorded decision intervals per trace, replayed cyclically
	capacity int // the registry's session bound
	// churn fills the registry to capacity with one-decision filler chips
	// before the replay and appends a never-seen chip to every request.
	churn bool
	// tracedPasses and tracedLatency bound the traced run's phases (client
	// passes over their batches, and open-loop requests) so its counts
	// repeat exactly.
	tracedPasses, tracedLatency int
	// wrap, when set, wraps the daemon's handler (tests inject faults).
	wrap func(http.Handler) http.Handler
}

// openLoopRate is the latency phase's fixed request rate for both serve
// workloads: a sixth to a quarter of serve-churn's closed-loop capacity
// on a 2-CPU virtual machine (about 1200 requests/s at seed 1 when its
// host ran fast, 800 when it ran slow). At half capacity, and even at
// 300 requests/s, the host's swings in CPU speed pushed the phase into
// queueing on some runs.
const openLoopRate = 200

func steadyReplay() replayConfig {
	return replayConfig{
		chips: 256, batch: 16, traces: 32, ticks: 16, capacity: serve.DefaultMaxSessions,
		tracedPasses: 500, tracedLatency: 3000,
	}
}

func churnReplay() replayConfig {
	c := steadyReplay()
	c.churn = true
	return c
}

// replay is one serve workload's state: the recorded telemetry and the
// pre-rendered requests (the generator), the daemon under test, and what
// it served.
type replay struct {
	cfg  replayConfig
	seed uint64
	ctrl *core.Controller
	tr   *tracer

	obs      [][]engine.Observation // [trace][tick]
	pool     []engine.Observation   // obs flattened trace-major
	poolJSON [][]byte               // wire form of each pool observation
	fresh    []engine.Decision      // a fresh session's decision on each pool observation
	bodies   [][]byte               // steady request per (batch, tick), batch-major

	reg    *serve.Registry
	srv    *http.Server
	url    string
	client *http.Client

	// Per-batch state. A batch is only ever sent by one client goroutine
	// and phases are sequential, so it needs no lock. Answers are kept
	// only until verify checks them, between phases, so what the
	// benchmark holds does not grow with the daemon's throughput.
	rounds   []int               // requests sent so far, per batch
	served   [][]engine.Decision // per steady chip, unchecked answers in tick order
	verified []int               // per steady chip, answers already checked
	oneShots [][]oneShot         // per batch, unchecked answers in request order
	fillers  int

	// The oracle, per trace: one continuous session and its answers from
	// tick wantFrom on. Answers every chip on the trace is past are
	// dropped.
	oracles           []*engine.Session
	want              [][]engine.Decision
	wantFrom          []int
	checked, diverged int // answers verified so far, and divergences among them
}

// oneShot is a never-seen chip's only decision.
type oneShot struct {
	round int // the request round of its batch
	pool  int
	got   engine.Decision
}

// fromWire keeps what the oracle check needs of a served decision; the
// chip ID is checked on arrival. Holding no string keeps the recorded
// answers cheap for the collector, which runs in the process under test.
func fromWire(d serve.Decision) engine.Decision {
	return engine.Decision{Freq: d.FreqGHz, Raw: d.RawGHz, Tick: d.Tick}
}

func (r *replay) batches() int { return r.cfg.chips / r.cfg.batch }

func chipID(c int) string { return "chip-" + strconv.Itoa(c) }

// oneShotID names the never-seen chip in round r of batch b.
func oneShotID(b, r int) string { return "oneshot-" + strconv.Itoa(b) + "-" + strconv.Itoa(r) }

// oneShotPick is the pool observation the never-seen chip of round r of
// batch b reports.
func (r *replay) oneShotPick(b, round int) int {
	return int(runner.DeriveSeed(r.seed, 0x0e5, uint64(b), uint64(round)) % uint64(len(r.poolJSON)))
}

// newReplay records the telemetry, renders the requests and boots the
// daemon: the serve workloads' set-up.
func newReplay(ctx context.Context, cfg replayConfig, seed uint64, ctrl *core.Controller, tr *tracer) (*replay, error) {
	if cfg.chips%cfg.batch != 0 || (cfg.chips/cfg.batch)%clients != 0 {
		return nil, fmt.Errorf("replay: %d chips in batches of %d do not split evenly over %d clients", cfg.chips, cfg.batch, clients)
	}
	r := &replay{cfg: cfg, seed: seed, ctrl: ctrl, tr: tr}
	if err := r.record(ctx); err != nil {
		return nil, err
	}
	if err := r.render(); err != nil {
		return nil, err
	}
	if err := r.boot(); err != nil {
		return nil, err
	}
	// Warm-up: one request per batch creates the steady sessions and
	// opens the connections. Its decisions are checked like any other.
	var scratch []byte
	for b := 0; b < r.batches(); b++ {
		if err := r.send(ctx, b, noSpan, &scratch); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// record runs each trace's chip closed loop (engine.ChipStream with an
// in-process oracle engine.Session deciding) on the quick campaign's
// simulator, which the model fixture was trained on, and keeps the
// boundary observations.
func (r *replay) record(ctx context.Context) error {
	cfg := experiments.QuickConfig()
	base, err := sim.New(cfg.Sim)
	if err != nil {
		return err
	}
	names := base.Workloads().Names()
	loop := engine.DefaultLoopConfig()
	loop.SensorIndex = cfg.SensorIndex
	loop.VF = r.ctrl.VF
	r.obs, err = runner.Map(ctx, clients, r.cfg.traces, func(ctx context.Context, k int) ([]engine.Observation, error) {
		p, err := base.CloneWithSeed(runner.DeriveSeed(r.seed, 0x7ace, uint64(k)))
		if err != nil {
			return nil, err
		}
		w, err := p.Workloads().ByName(names[runner.DeriveSeed(r.seed, 0x3a3e, uint64(k))%uint64(len(names))])
		if err != nil {
			return nil, err
		}
		cs, err := engine.NewChipStream(p, w, loop)
		if err != nil {
			return nil, err
		}
		oracle, err := r.newSession()
		if err != nil {
			return nil, err
		}
		out := make([]engine.Observation, r.cfg.ticks)
		freq := oracle.Freq()
		for t := range out {
			if out[t], err = cs.Next(freq); err != nil {
				return nil, err
			}
			freq = oracle.Decide(out[t]).Freq
		}
		return out, nil
	})
	return err
}

// newSession is a session exactly like the ones the registry creates.
func (r *replay) newSession() (*engine.Session, error) {
	return engine.NewSession(engine.SessionConfig{Controller: control.CloneController(r.ctrl), VF: r.ctrl.VF, StartFreq: engine.DefaultLoopConfig().StartFreq})
}

func wireObs(o engine.Observation) serve.Observation {
	return serve.Observation{SensorTemp: o.SensorTemp, Counters: o.Counters}
}

// render pre-renders every steady request body and the wire form of every
// pool observation, and computes a fresh session's decision on each pool
// observation (the expected answer for a never-seen chip).
func (r *replay) render() error {
	for _, trace := range r.obs {
		r.pool = append(r.pool, trace...)
		for _, o := range trace {
			b, err := json.Marshal(wireObs(o))
			if err != nil {
				return err
			}
			r.poolJSON = append(r.poolJSON, b)
			s, err := r.newSession()
			if err != nil {
				return err
			}
			r.fresh = append(r.fresh, s.Decide(o))
		}
	}
	for b := 0; b < r.batches(); b++ {
		for t := 0; t < r.cfg.ticks; t++ {
			req := serve.DecideRequest{Batch: make([]serve.DecideItem, r.cfg.batch)}
			for j := range req.Batch {
				c := b*r.cfg.batch + j
				req.Batch[j] = serve.DecideItem{Chip: chipID(c), Observation: wireObs(r.obs[c%r.cfg.traces][t])}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			r.bodies = append(r.bodies, body)
		}
	}
	r.rounds = make([]int, r.batches())
	r.served = make([][]engine.Decision, r.cfg.chips)
	r.verified = make([]int, r.cfg.chips)
	r.oneShots = make([][]oneShot, r.batches())
	r.oracles = make([]*engine.Session, r.cfg.traces)
	r.want = make([][]engine.Decision, r.cfg.traces)
	r.wantFrom = make([]int, r.cfg.traces)
	return nil
}

// requestBody returns the body of round round of batch b. A never-seen
// chip's item is spliced into the pre-rendered steady body in *scratch.
func (r *replay) requestBody(b, round int, scratch *[]byte) []byte {
	steady := r.bodies[b*r.cfg.ticks+round%r.cfg.ticks]
	if !r.cfg.churn {
		return steady
	}
	out := append((*scratch)[:0], steady[:len(steady)-2]...) // drop the closing "]}"
	out = append(out, `,{"chip":"`...)
	out = append(out, oneShotID(b, round)...)
	out = append(out, `","observation":`...)
	out = append(out, r.poolJSON[r.oneShotPick(b, round)]...)
	*scratch = append(out, "}]}"...)
	return *scratch
}

// newRegistry builds a registry configured like the workload's daemon and,
// under churn, fills it with one-decision filler chips up to the steady
// chips' share. It returns the filler count.
func (r *replay) newRegistry() (*serve.Registry, int, error) {
	reg, err := serve.NewRegistry(serve.RegistryConfig{
		Controller:  r.ctrl,
		VF:          r.ctrl.VF,
		StartFreq:   engine.DefaultLoopConfig().StartFreq,
		MaxSessions: r.cfg.capacity,
	})
	if err != nil || !r.cfg.churn {
		return reg, 0, err
	}
	fillers := r.cfg.capacity - r.cfg.chips
	for i := 0; i < fillers; i++ {
		if _, err := reg.Decide("filler-"+strconv.Itoa(i), r.pool[i%len(r.pool)]); err != nil {
			return nil, 0, err
		}
	}
	return reg, fillers, nil
}

// boot builds the registry and starts the daemon on a loopback port.
func (r *replay) boot() error {
	var err error
	if r.reg, r.fillers, err = r.newRegistry(); err != nil {
		return err
	}
	var h http.Handler = serve.NewHandler(r.reg)
	if r.cfg.wrap != nil {
		h = r.cfg.wrap(h)
	}
	if r.tr != nil {
		h = spanHandler(r.tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = &http.Server{Handler: h}
	go r.srv.Serve(ln)
	r.url = "http://" + ln.Addr().String() + "/v1/decide"
	r.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
	return nil
}

// close stops the daemon and waits for its connections to close.
func (r *replay) close() {
	r.client.CloseIdleConnections()
	r.srv.Close()
}

// spanHandler is the benchmark's own wrapper around the daemon: it
// records a serve.handler span per request, as the child of the client's
// request span named in spanHeader. Requests without the header are not
// traced.
func spanHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		id := tr.begin("serve.handler", parent)
		next.ServeHTTP(w, req)
		tr.end(id)
	})
}

// send posts the next round of batch b and records what came back.
// parent != noSpan traces the request as an http.request span under
// parent. scratch is the caller's reusable body buffer.
func (r *replay) send(ctx context.Context, b, parent int, scratch *[]byte) error {
	round := r.rounds[b]
	body := r.requestBody(b, round, scratch)
	items := r.itemsPerRequest()
	fail := func(format string, args ...any) error {
		return fmt.Errorf("batch %d round %d: "+format, append([]any{b, round}, args...)...)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	id := noSpan
	if parent != noSpan && r.tr != nil {
		id = r.tr.begin("http.request", parent)
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.tr.end(id)
	if err != nil {
		return fail("reading response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	var out serve.DecideResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return fail("decoding response: %v", err)
	}
	if len(out.Decisions) != items {
		return fail("%d decisions for %d items", len(out.Decisions), items)
	}
	for j := 0; j < r.cfg.batch; j++ {
		c := b*r.cfg.batch + j
		if out.Decisions[j].Chip != chipID(c) {
			return fail("item %d answered for chip %q, want %q", j, out.Decisions[j].Chip, chipID(c))
		}
		r.served[c] = append(r.served[c], fromWire(out.Decisions[j]))
	}
	if r.cfg.churn {
		d := out.Decisions[r.cfg.batch]
		if d.Chip != oneShotID(b, round) {
			return fail("one-shot item answered for chip %q, want %q", d.Chip, oneShotID(b, round))
		}
		r.oneShots[b] = append(r.oneShots[b], oneShot{round: round, pool: r.oneShotPick(b, round), got: fromWire(d)})
	}
	r.rounds[b]++
	return nil
}

// itemsPerRequest is the decision count of one request.
func (r *replay) itemsPerRequest() int {
	if r.cfg.churn {
		return r.cfg.batch + 1
	}
	return r.cfg.batch
}

// sentRequests counts every request answered so far, warm-up included.
func (r *replay) sentRequests() int {
	n := 0
	for _, k := range r.rounds {
		n += k
	}
	return n
}

// ownedBatches are the batches client w sends: b % clients == w.
func (r *replay) ownedBatches(w int) []int {
	var out []int
	for b := w; b < r.batches(); b += clients {
		out = append(out, b)
	}
	return out
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	wall     float64   // seconds from start until every client stopped
	requests int       // requests answered
	passes   []float64 // closed loop: seconds per client pass over its batches
	lat      []float64 // open loop: seconds from due time to answer
	late     []float64 // open loop: generator timer overshoot, seconds
	err      error     // the first failed request, if any
	failed   int       // decisions carried by failed requests
}

// capacity is the closed-loop phase: each client sends its batches in
// turn, the next request as soon as the previous is answered, until the
// deadline passes (or, with passes > 0, for that many passes).
func (r *replay) capacity(ctx context.Context, deadline time.Time, passes, parent int) phaseResult {
	return r.phase(func(w int, res *phaseResult) error {
		var scratch []byte
		owned := r.ownedBatches(w)
		for p := 0; passes <= 0 || p < passes; p++ {
			if passes <= 0 && !time.Now().Before(deadline) {
				return nil
			}
			t0 := time.Now()
			for _, b := range owned {
				if err := r.send(ctx, b, parent, &scratch); err != nil {
					return err
				}
				res.requests++
			}
			res.passes = append(res.passes, time.Since(t0).Seconds())
		}
		return nil
	})
}

// latency is the open-loop phase: request i is due at start + i/rate and
// goes to batch i % batches, sent by that batch's client. A request is
// timed from when it was due, so time spent queued behind a slow answer
// counts. Go's timers fire up to about a millisecond late on Linux; that
// overshoot is the generator's own lateness, reported separately and
// left out of the request's latency.
func (r *replay) latency(ctx context.Context, n int, until time.Duration, parent int) phaseResult {
	start := time.Now().Add(time.Millisecond)
	interval := time.Second / openLoopRate
	if n <= 0 {
		n = int(until / interval)
	}
	return r.phase(func(w int, res *phaseResult) error {
		var scratch []byte
		prevEnd := start
		for i := w; i < n; i += clients {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sendAt := due
			if prevEnd.After(due) {
				sendAt = prevEnd
			}
			t0 := time.Now()
			if err := r.send(ctx, i%r.batches(), parent, &scratch); err != nil {
				return err
			}
			end := time.Now()
			late := t0.Sub(sendAt)
			res.late = append(res.late, late.Seconds())
			res.lat = append(res.lat, (end.Sub(due) - late).Seconds())
			res.requests++
			prevEnd = end
		}
		return nil
	})
}

// phase runs one client goroutine per connection and merges what they
// measured.
func (r *replay) phase(client func(w int, res *phaseResult) error) phaseResult {
	per := make([]phaseResult, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := client(w, &per[w]); err != nil {
				// A client stops at its first failed request; every
				// decision that request carried counts as failed.
				per[w].err, per[w].failed = err, r.itemsPerRequest()
			}
		}(w)
	}
	wg.Wait()
	out := phaseResult{wall: time.Since(t0).Seconds()}
	for _, p := range per {
		out.requests += p.requests
		out.passes = append(out.passes, p.passes...)
		out.lat = append(out.lat, p.lat...)
		out.late = append(out.late, p.late...)
		out.failed += p.failed
		if out.err == nil {
			out.err = p.err
		}
	}
	return out
}

// verify diffs every answer served since the last call bit for bit
// against the oracle, then drops it: a steady chip's answers against one
// continuous session fed its trace (chips sharing a trace share that
// session's answers), a never-seen chip's against a fresh session's. It
// adds to r.checked and r.diverged and logs the first divergence.
func (r *replay) verify(log func(string, ...any)) {
	expect := func(k, t int) engine.Decision {
		for r.wantFrom[k]+len(r.want[k]) <= t {
			if r.oracles[k] == nil {
				r.oracles[k], _ = r.newSession() // the same config already built the registry
			}
			next := r.wantFrom[k] + len(r.want[k])
			r.want[k] = append(r.want[k], r.oracles[k].Decide(r.obs[k][next%r.cfg.ticks]))
		}
		return r.want[k][t-r.wantFrom[k]]
	}
	diff := func(what string, got, w engine.Decision) {
		r.checked++
		if got.Tick == w.Tick && math.Float64bits(got.Freq) == math.Float64bits(w.Freq) && math.Float64bits(got.Raw) == math.Float64bits(w.Raw) {
			return
		}
		if r.diverged == 0 {
			log("first divergence: %s served (freq %v, raw %v, tick %d), oracle (freq %v, raw %v, tick %d)",
				what, got.Freq, got.Raw, got.Tick, w.Freq, w.Raw, w.Tick)
		}
		r.diverged++
	}
	for c, ds := range r.served {
		for i, d := range ds {
			diff(chipID(c), d, expect(c%r.cfg.traces, r.verified[c]+i))
		}
		r.verified[c] += len(ds)
		r.served[c] = ds[:0]
	}
	low := make([]int, r.cfg.traces)
	for k := range low {
		low[k] = math.MaxInt
	}
	for c, v := range r.verified {
		low[c%r.cfg.traces] = min(low[c%r.cfg.traces], v)
	}
	for k, from := range r.wantFrom {
		if drop := low[k] - from; drop > 0 {
			r.want[k] = append(r.want[k][:0], r.want[k][drop:]...)
			r.wantFrom[k] = low[k]
		}
	}
	for b, shots := range r.oneShots {
		for _, s := range shots {
			diff(oneShotID(b, s.round), s.got, r.fresh[s.pool])
		}
		r.oneShots[b] = shots[:0]
	}
}

// checkRegistry compares the registry's own bookkeeping with the counts
// the schedule implies: every steady chip still holds its session with
// one tick per decision served, each never-seen chip created exactly one
// session, and at capacity each creation evicted exactly one LRU session.
func (r *replay) checkRegistry(rc *runCtx) {
	snap := r.reg.Snapshot()
	shots := 0 // one never-seen chip per request under churn
	if r.cfg.churn {
		shots = r.sentRequests()
	}
	created := uint64(r.fillers + r.cfg.chips + shots)
	evicted := uint64(0)
	if capacity := uint64(r.cfg.capacity); created > capacity {
		evicted = created - capacity
	}
	decisions := uint64(r.fillers + r.sentRequests()*r.itemsPerRequest())
	if snap.SessionsCreated != created || snap.EvictedLRU != evicted || snap.EvictedIdle != 0 {
		rc.fail("registry churn: created %d, evicted lru %d / idle %d; schedule implies %d, %d, 0",
			snap.SessionsCreated, snap.EvictedLRU, snap.EvictedIdle, created, evicted)
	}
	if snap.Decisions != decisions || snap.BadRequests != 0 {
		rc.fail("registry counted %d decisions and %d bad requests, want %d and 0", snap.Decisions, snap.BadRequests, decisions)
	}
	for c, ds := range r.served {
		want := r.verified[c] + len(ds)
		info, ok := r.reg.Session(chipID(c))
		if !ok || info.Tick != want {
			rc.fail("steady chip %s: session present=%v at tick %d, want tick %d", chipID(c), ok, info.Tick, want)
			return
		}
	}
}
