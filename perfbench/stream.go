package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/service"
	"ramr/internal/workloads"
)

// The stream workload is one Word Count streaming session over ramrd
// (window 8 ticks, at most 64 pending splits). Chunk k carries tick k and
// four 16 KiB lines of generated text. Phase 1 sends a fixed volume as
// fast as one producer can, honouring 429 Retry-After; phase 2 sends at a
// fixed rate while a second goroutine polls each window the watermark has
// passed until it reads sealed.

const (
	streamWindow     = 8
	streamMaxPending = 64
	linesPerChunk    = 4
	// streamRate is phase 2's fixed send rate, about a quarter of phase
	// 1's throughput on a 2-vCPU host; at half of it a stall of the host
	// builds a backlog the rest of the run never drains.
	streamRate = 125.0 // chunks per second
	// phase1PerSecond sizes phase 1's volume per second of run length;
	// phase 2 lasts phase2Share of the run length.
	phase1PerSecond = 80
	phase2Share     = 0.6
	windowPoll      = 250 * time.Microsecond
)

// chunkPool holds the generated text and the pre-encoded line payloads.
type chunkPool struct {
	lines   []string
	words   []uint64 // words per line
	payload [][]byte // JSON array of chunk c's lines, for c < len(payload)
	bytes   int      // text bytes per chunk, averaged
}

func newChunkPool(textBytes int, seed int64) *chunkPool {
	lines := workloads.GenerateText(textBytes, seed)
	n := len(lines) / linesPerChunk * linesPerChunk
	p := &chunkPool{lines: lines[:n]}
	total := 0
	for _, l := range p.lines {
		p.words = append(p.words, uint64(len(strings.Fields(l))))
		total += len(l)
	}
	for c := 0; c < n/linesPerChunk; c++ {
		b, _ := json.Marshal(p.lines[c*linesPerChunk : (c+1)*linesPerChunk]) // strings always encode
		p.payload = append(p.payload, b)
	}
	p.bytes = total / len(p.payload)
	return p
}

// first returns the pool index of tick ts's first line.
func (p *chunkPool) first(ts int64) int {
	return int(ts%int64(len(p.payload))) * linesPerChunk
}

func (p *chunkPool) body(ts int64) []byte {
	b := make([]byte, 0, len(p.payload[0])+32)
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"lines":`...)
	b = append(b, p.payload[ts%int64(len(p.payload))]...)
	return append(b, '}')
}

// streamSession is one open session on a booted ramrd.
type streamSession struct {
	env  *serviceEnv
	id   int
	pool *chunkPool
	next int64 // next tick to send
}

// streamStats collects one phase's measurements.
type streamStats struct {
	mu                          sync.Mutex
	post, pending, late, winGet []float64
	chunks, retries             int
	seal                        []float64
	acked                       []time.Time
}

// windowMeta is the subset of a sealed window the benchmark reads.
type windowMeta struct {
	Index    int64  `json:"index"`
	Pairs    int    `json:"pairs"`
	Elements uint64 `json:"elements"`
	Splits   int64  `json:"splits"`
	Chunks   int64  `json:"chunks"`
	Digest   string `json:"digest"`
}

func openStream(seed int64, small bool) (*streamSession, error) {
	textBytes := 4 << 20
	if small {
		textBytes = 1 << 20
	}
	pool := newChunkPool(textBytes, seed)
	env, err := bootService(service.Config{})
	if err != nil {
		return nil, err
	}
	body := fmt.Sprintf(`{"workload":"WC","stream":{"window":%d,"max_pending":%d}}`, streamWindow, streamMaxPending)
	r, err := do(env.c, http.MethodPost, env.srv.URL+"/jobs", []byte(body))
	if err == nil && r.code != http.StatusCreated {
		err = fmt.Errorf("opening session: %d %s", r.code, r.body)
	}
	var doc jobDoc
	if err == nil {
		err = decode(r, &doc)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	s := &streamSession{env: env, id: doc.ID, pool: pool}
	// Warm-up: two windows' worth of chunks through the ingest path.
	var st streamStats
	for i := 0; i < 2*streamWindow; i++ {
		if err := s.send(nil, s.next, &st); err != nil {
			s.cancel()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.next++
	}
	return s, nil
}

// cancel deletes the open session, so the service's drain does not wait
// for it, and stops the service.
func (s *streamSession) cancel() {
	_, _ = do(s.env.c, http.MethodDelete, fmt.Sprintf("%s/jobs/%d", s.env.srv.URL, s.id), nil) // the drain cancels it anyway
	s.env.close()
}

// send posts tick ts, retrying after a 429 for as long as the reply asks.
func (s *streamSession) send(tr *tracer, ts int64, st *streamStats) error {
	url := fmt.Sprintf("%s/jobs/%d/chunks", s.env.srv.URL, s.id)
	body := s.pool.body(ts)
	tid := tr.newTrace()
	root := tr.begin(tid, 0, "bench", "chunk")
	defer root.end()
	for {
		sp := tr.begin(tid, root.id(), "stream", "POST /jobs/{id}/chunks")
		r, err := do(s.env.c, http.MethodPost, url, body)
		sp.end()
		if err != nil {
			return err
		}
		took := ms(r.took)
		switch r.code {
		case http.StatusAccepted:
			var ack struct {
				Pending int64 `json:"pending"`
			}
			if err := decode(r, &ack); err != nil {
				return err
			}
			st.mu.Lock()
			st.post = append(st.post, took)
			st.pending = append(st.pending, float64(ack.Pending))
			st.acked = append(st.acked, time.Now())
			st.chunks++
			st.mu.Unlock()
			return nil
		case http.StatusTooManyRequests:
			var bp struct {
				RetryAfterMS int64 `json:"retry_after_ms"`
			}
			if err := decode(r, &bp); err != nil {
				return err
			}
			st.mu.Lock()
			st.retries++
			st.mu.Unlock()
			time.Sleep(time.Duration(bp.RetryAfterMS) * time.Millisecond)
		default:
			return fmt.Errorf("chunk %d: %d %s", ts, r.code, r.body)
		}
	}
}

// phase1 sends volume chunks back to back and returns the median
// per-slice rate of acknowledged chunks per second.
func (s *streamSession) phase1(tr *tracer, volume int, st *streamStats) (float64, error) {
	start := time.Now()
	for i := 0; i < volume; i++ {
		if err := s.send(tr, s.next, st); err != nil {
			return 0, err
		}
		s.next++
	}
	return medianRate(st.acked, start, time.Now()), nil
}

// phase2 sends count chunks at streamRate; a second goroutine reads each
// window whose end the watermark passes in this phase, timing from the
// due time of the chunk that moved the watermark to the first GET that
// sees the window sealed.
func (s *streamSession) phase2(tr *tracer, count int, st *streamStats) error {
	start := time.Now()
	first := s.next
	due := func(ts int64) time.Time {
		return start.Add(time.Duration(float64(ts-first) / streamRate * float64(time.Second)))
	}
	// Sized to the number of sends, so the producer never blocks on it.
	sealers := make(chan int64, count)
	var pollErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := range sealers {
			if pollErr != nil {
				continue
			}
			pollErr = s.awaitSeal(tr, ts/streamWindow-1, due(ts), st)
		}
	}()
	var sendErr error
	for i := 0; i < count; i++ {
		ts := s.next
		d := due(ts)
		sleepUntil(d)
		late := ms(time.Since(d))
		if sendErr = s.send(tr, ts, st); sendErr != nil {
			break
		}
		st.mu.Lock()
		st.late = append(st.late, late)
		st.mu.Unlock()
		s.next++
		if ts > 0 && ts%streamWindow == 0 {
			sealers <- ts
		}
	}
	close(sealers)
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	return pollErr
}

// awaitSeal polls GET /windows/{n} until the window reads sealed.
func (s *streamSession) awaitSeal(tr *tracer, n int64, due time.Time, st *streamStats) error {
	url := fmt.Sprintf("%s/jobs/%d/windows/%d", s.env.srv.URL, s.id, n)
	tid := tr.newTrace()
	root := tr.begin(tid, 0, "bench", "window")
	defer root.end()
	for {
		sp := tr.begin(tid, root.id(), "stream", "GET /jobs/{id}/windows/{n}")
		r, err := do(s.env.c, http.MethodGet, url, nil)
		sp.end()
		if err != nil {
			return err
		}
		st.mu.Lock()
		st.winGet = append(st.winGet, ms(r.took))
		st.mu.Unlock()
		switch r.code {
		case http.StatusOK:
			lat := ms(time.Since(due))
			st.mu.Lock()
			st.seal = append(st.seal, lat)
			st.mu.Unlock()
			return nil
		case http.StatusAccepted:
			time.Sleep(windowPoll)
		default:
			return fmt.Errorf("window %d: %d %s", n, r.code, r.body)
		}
	}
}

// closeSession seals the tail and returns every window.
func (s *streamSession) closeSession(tr *tracer) ([]windowMeta, time.Duration, error) {
	sp := tr.begin(tr.newTrace(), 0, "stream", "POST /jobs/{id}/close")
	r, err := do(s.env.c, http.MethodPost, fmt.Sprintf("%s/jobs/%d/close", s.env.srv.URL, s.id), nil)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	if r.code != http.StatusOK {
		return nil, 0, fmt.Errorf("close: %d %s", r.code, r.body)
	}
	var doc struct {
		Windows []windowMeta `json:"windows"`
	}
	if err := decode(r, &doc); err != nil {
		return nil, 0, err
	}
	return doc.Windows, r.took, nil
}

// wcDigest is a batch Word Count run over lines, folded with the
// library's own per-pair digest (through a one-shard Partial summary).
func wcDigest(lines []string) (string, error) {
	part := &workloads.Partial{App: "WC", Str: map[string]int64{}}
	spec := workloads.WordCountSpec(lines, container.KindHash)
	if _, err := workloads.RunTypedExport(context.Background(), spec, workloads.EngineRAMR, mr.DefaultConfig(), nil,
		func(k string, v int) { part.Str[k] = int64(v) }); err != nil {
		return "", err
	}
	_, d, err := part.Summary()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", d), nil
}

// verifyWindows checks that every window conserves its chunks, lines and
// words, and that each window's digest equals a batch Word Count run
// over the window's lines.
func verifyWindows(out *outcome, pool *chunkPool, wins []windowMeta, sent int64) error {
	want := sent / streamWindow
	if sent%streamWindow != 0 {
		want++
	}
	out.chk.check(int64(len(wins)) == want, "stream: %d windows for %d chunks, want %d", len(wins), sent, want)
	digests := map[int]string{} // by first pool line; the pool repeats
	for _, w := range wins {
		lo := w.Index * streamWindow
		hi := min(lo+streamWindow, sent)
		var lines []string
		var words uint64
		for ts := lo; ts < hi; ts++ {
			f := pool.first(ts)
			lines = append(lines, pool.lines[f:f+linesPerChunk]...)
			for _, n := range pool.words[f : f+linesPerChunk] {
				words += n
			}
		}
		out.chk.check(w.Chunks == hi-lo && w.Splits == int64(len(lines)) && w.Elements == words,
			"stream window %d: %d chunks %d lines %d words, want %d %d %d",
			w.Index, w.Chunks, w.Splits, w.Elements, hi-lo, len(lines), words)
		key := pool.first(lo)*1000 + int(hi-lo)
		d, ok := digests[key]
		if !ok {
			var err error
			if d, err = wcDigest(lines); err != nil {
				return err
			}
			digests[key] = d
		}
		out.chk.check(w.Digest == d, "stream window %d: digest %s, batch run %s", w.Index, w.Digest, d)
	}
	return nil
}

func runStream(p plan) (*outcome, error) {
	out := newOutcome()
	var s *streamSession
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		ns, err := openStream(p.seed, p.small)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		if s != nil {
			s.cancel()
		}
		s = ns
	}
	defer s.env.close()

	var st *streamStats
	var rate float64
	var vol int
	for k, ph := range p.phases {
		st = &streamStats{}
		vol = int(ph.seconds*phase1PerSecond) / streamWindow * streamWindow
		vol = max(vol, 4*streamWindow)
		var err error
		if rate, err = s.phase1(ph.tr, vol, st); err != nil {
			return nil, err
		}
		n2 := int(ph.seconds*phase2Share*streamRate) / streamWindow * streamWindow
		n2 = max(n2, 4*streamWindow)
		if err := s.phase2(ph.tr, n2, st); err != nil {
			return nil, err
		}
		out.attempted += vol + n2 + len(st.seal)
		out.endPhase(st.seal, rate)
		if k == 0 {
			out.extra.set("ingest_mb_per_s", "MB/s", rate*float64(s.pool.bytes)/1e6, vol)
			out.extra.dist("seal_ms", "ms", st.seal)
			out.extra.set("late_ms.p90", "ms", quantile(st.late, 0.9), len(st.late))
		}
	}
	wins, closeTook, err := s.closeSession(p.phases[len(p.phases)-1].tr)
	if err != nil {
		return nil, err
	}
	if err := verifyWindows(out, s.pool, wins, s.next); err != nil {
		return nil, err
	}

	m := out.layer
	m.ratio("stream.backpressure_ratio", float64(st.retries), float64(st.chunks+st.retries), st.chunks+st.retries)
	m.set("stream.pending.p90", "splits", quantile(st.pending, 0.9), len(st.pending))
	m.set("stream.window_get_ms.p50", "ms", quantile(st.winGet, 0.5), len(st.winGet))
	m.set("stream.close_ms", "ms", ms(closeTook), 1)
	m.set("stream.ingest_mb_per_s", "MB/s", rate*float64(s.pool.bytes)/1e6, vol)
	m.dist("stream.seal_ms", "ms", st.seal)
	m.set("service.chunk_post_ms.p50", "ms", quantile(st.post, 0.5), len(st.post))
	out.notes = append(out.notes, fmt.Sprintf("stream backpressure: %d 429s over %d admitted chunks in the last phase",
		st.retries, st.chunks))
	return out, nil
}
