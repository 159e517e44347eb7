package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans caps the in-memory span buffer; spans past it are counted in
// dropped instead of stored, so a long run cannot grow without bound.
const maxSpans = 500_000

// spanRecord is one finished span as written to the span file. Times are
// microseconds since the tracer started.
type spanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Note    string `json:"note,omitempty"`
}

// tracer keeps spans in memory around the benchmark's calls into each
// layer and writes them out when the run ends. A nil *tracer records
// nothing, which is how the untraced runs use it.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	nextID  uint64
	spans   []spanRecord
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanHandle is an open span; end closes it. A nil handle is a no-op.
type spanHandle struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	note   string
}

// start opens a span under parent (0 for a root span).
func (t *tracer) start(name string, parent uint64) *spanHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &spanHandle{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

// ID returns the span's identifier (0 for a nil handle), for children.
func (s *spanHandle) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// setNote attaches a short annotation, such as an access class.
func (s *spanHandle) setNote(note string) {
	if s != nil {
		s.note = note
	}
}

func (s *spanHandle) end() {
	if s == nil {
		return
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, spanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUs: s.start.Sub(t.origin).Microseconds(),
		DurUs:   now.Sub(s.start).Microseconds(),
		Note:    s.note,
	})
}

// count returns how many spans are stored.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes the spans as JSON lines, one span per line, after a
// header line carrying the run's fingerprint.
func (t *tracer) writeFile(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"header": header, "spans": len(t.spans), "dropped": t.dropped})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
