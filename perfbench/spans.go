package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one (0 = a root).
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// log records nothing, which is how untraced runs stay untraced.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID.
func (l *spanLog) add(req, parent int, name string, start, end int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open records a span whose end is not known yet; end closes it.
func (l *spanLog) open(req, parent int, name string, start int64) int {
	return l.add(req, parent, name, start, start)
}

func (l *spanLog) end(id int, end int64) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

// write saves the spans as NDJSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
