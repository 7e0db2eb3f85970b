package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval. Spans of one request share Req; Parent is the
// causing span's ID (0 for a root). Times are nanoseconds since the
// benchmark process started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps what is kept in memory: serve_hot alone would otherwise
// record over a million spans per run. Later spans are counted, not kept.
const maxSpans = 200_000

// spanLog keeps spans in memory and writes them out when the run ends.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	nextID  int64
	nextReq int64
	dropped int64
}

var processStart = time.Now()

func sinceStart(t time.Time) int64 { return int64(t.Sub(processStart)) }

// newRequest returns a fresh request id.
func (l *spanLog) newRequest() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextReq++
	return l.nextReq
}

// add records one span and returns its id (0 when past the cap).
func (l *spanLog) add(parent, req int64, name string, start, end int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	l.nextID++
	l.spans = append(l.spans, span{ID: l.nextID, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return l.nextID
}

// timed records a span around fn: the ladder's one-span-per-call.
func (l *spanLog) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.add(0, l.newRequest(), name, sinceStart(start), sinceStart(start)+int64(d))
	return d
}

// recordRequest builds a traced request's span tree from its response: the
// root covers send → last byte; its children are admission wait and engine
// execution, whose children are the trace stages. Where in the round trip
// the server worked is not observable from outside, so the children are
// centred in the root. Stage wall times are summed per worker and can
// exceed the engine's elapsed time; they are then scaled to fit it.
//
// It returns the time no leaf layer span covers: the root's self time
// (server.front: HTTP, parse, cache, render, wire) and the engine's.
func (l *spanLog) recordRequest(key string, start time.Time, rtt time.Duration, rep *queryReply) (frontNs, execSelfNs int64) {
	wait, exec := rep.WaitNs, rep.CPUNs
	if rep.Cached {
		exec = 0 // a cache hit reports the populating run's cost, not its own
	}
	frontNs = max(int64(rtt)-wait-exec, 0)
	req := l.newRequest()
	t0 := sinceStart(start)
	root := l.add(0, req, "request "+key, t0, t0+int64(rtt))
	at := t0 + frontNs/2
	if wait > 0 {
		l.add(root, req, "server.admit", at, at+wait)
	}
	at += wait
	execSelfNs = exec
	if exec > 0 {
		ex := l.add(root, req, "server.exec", at, at+exec)
		if rep.Trace != nil {
			var stageSum int64
			for _, s := range rep.Trace.Stages {
				stageSum += s.WallNs
			}
			scale := 1.0
			if stageSum > exec {
				scale = float64(exec) / float64(stageSum)
			}
			for _, s := range rep.Trace.Stages {
				d := int64(float64(s.WallNs) * scale)
				l.add(ex, req, "exec."+s.Name, at, at+d)
				at += d
				execSelfNs -= d
			}
		}
	}
	return frontNs, max(execSelfNs, 0)
}

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	raw, err := json.Marshal(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{l.dropped, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
