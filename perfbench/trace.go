package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory for one traced run. Spans are recorded by
// the benchmark around each call it makes into a layer of the program;
// spans of one job or request share a trace id. A nil *tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	epoch  time.Time
	ids    atomic.Uint64
	traces atomic.Uint64

	mu    sync.Mutex
	spans []span
}

type span struct {
	ID, Parent, Trace uint64
	Layer, Name       string
	Start, End        time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh trace id (0 when t is nil).
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.traces.Add(1)
}

// open is an unfinished span; end records it.
type open struct {
	t      *tracer
	s      span
	closed bool
}

// begin starts a span of layer/name under parent (0 for a root).
func (t *tracer) begin(trace, parent uint64, layer, name string) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Trace: trace, Layer: layer, Name: name, Start: time.Now()}}
}

// id is the span's id, for use as a child's parent (0 when untraced).
func (o *open) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil || o.closed {
		return
	}
	o.closed = true
	o.s.End = time.Now()
	o.t.add(o.s)
}

// record adds a finished span measured elsewhere.
func (t *tracer) record(trace, parent uint64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start, End: end})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's span self times in ms: a span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string][]float64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		covered := coveredWithin(s.Start, s.End, kids[s.ID])
		out[s.Layer] = append(out[s.Layer], ms(s.End.Sub(s.Start)-covered))
	}
	return out
}

// coveredWithin is the length of the union of the children's intervals
// clipped to [start, end].
func coveredWithin(start, end time.Time, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = x[0], x[1]
			continue
		}
		if x[1].After(curB) {
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (load at
// ui.perfetto.dev): one complete event per span, one lane per trace id.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		b, err := json.Marshal(event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(t.epoch)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Pid: 1, Tid: s.Trace,
			Args: map[string]any{"layer": s.Layer, "id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(spans)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
