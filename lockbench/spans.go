package main

import (
	"bufio"
	"fmt"
	"os"
)

// spanName identifies a layer boundary the benchmark times. Every span
// wraps one call into a public function of scl, scl/export or scl/trace,
// or one piece of the benchmark's own op (the op itself, its critical
// section).
type spanName uint8

const (
	spOp spanName = iota
	spCS
	spMutexLock
	spMutexUnlock
	spDo
	spDoWait
	spManagerLock
	spManagerUnlock
	spRLock
	spRUnlock
	spWLock
	spWUnlock
	spStats
	spScrape
	spOpSelf // not a span: op duration minus its direct children
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:            "op",
	spCS:            "cs",
	spMutexLock:     "mutex.lock",
	spMutexUnlock:   "mutex.unlock",
	spDo:            "combine.do",
	spDoWait:        "combine.do_wait",
	spManagerLock:   "manager.lock",
	spManagerUnlock: "manager.unlock",
	spRLock:         "rwlock.rlock",
	spRUnlock:       "rwlock.runlock",
	spWLock:         "rwlock.wlock",
	spWUnlock:       "rwlock.wunlock",
	spStats:         "stats.snapshot",
	spScrape:        "export.scrape",
	spOpSelf:        "bench.op_self",
}

// span is one timed interval. Times are nanotime values.
// An op's spans share its op id; parent is the id of the enclosing span
// (0 for an op).
type span struct {
	id, parent, op uint64
	start, end     int64
	name           spanName
}

const (
	spanRingCap  = 1 << 15 // spans kept per goroutine for the written log
	reservoirCap = 8192    // duration samples kept per span name
)

// spanLog records one goroutine's spans. It keeps the latest spanRingCap
// spans for the written log and a uniform sample of every span's duration
// per name for the percentiles; nothing allocates after construction.
type spanLog struct {
	owner  uint64 // high bits of this goroutine's span ids
	next   uint64
	ring   []span
	n      uint64
	op     uint64 // id of the op in progress
	opAt   int64
	kids   int64 // summed duration of the op's direct children
	sample [numSpanNames]reservoir
}

func newSpanLog(owner int, seed uint64) *spanLog {
	l := &spanLog{owner: uint64(owner+1) << 48, ring: make([]span, spanRingCap)}
	for i := range l.sample {
		l.sample[i] = newReservoir(reservoirCap, seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return l
}

func (l *spanLog) now() int64 { return nanotime() }

func (l *spanLog) record(s span) {
	l.ring[l.n%spanRingCap] = s
	l.n++
	l.sample[s.name].add(s.end - s.start)
}

// beginOp opens an op span.
func (l *spanLog) beginOp() {
	l.next++
	l.op = l.owner | l.next
	l.kids = 0
	l.opAt = l.now()
}

// child records a direct child of the current op and returns its id.
func (l *spanLog) child(name spanName, start, end int64) uint64 {
	l.kids += end - start
	return l.under(l.op, name, start, end)
}

// under records a span whose parent is the given span id.
func (l *spanLog) under(parent uint64, name spanName, start, end int64) uint64 {
	l.next++
	id := l.owner | l.next
	l.record(span{id: id, parent: parent, op: l.op, start: start, end: end, name: name})
	return id
}

// endOp closes the current op span and books its self time.
func (l *spanLog) endOp() {
	end := l.now()
	l.record(span{id: l.op, op: l.op, start: l.opAt, end: end, name: spOp})
	l.sample[spOpSelf].add(end - l.opAt - l.kids)
}

// timed records a standalone op made of one call, as the scraper does.
func (l *spanLog) timed(name spanName, start, end int64) {
	l.beginOp()
	l.opAt = start
	l.child(name, start, end)
	l.endOp()
}

// writeSpans writes the retained spans of every log as JSON lines.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range logs {
		first := uint64(0)
		if l.n > spanRingCap {
			first = l.n - spanRingCap
		}
		for i := first; i < l.n; i++ {
			s := l.ring[i%spanRingCap]
			fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.op, s.id, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// durations merges the samples of one span name across logs.
func durations(logs []*spanLog, name spanName) []int64 {
	var out []int64
	for _, l := range logs {
		out = append(out, l.sample[name].vals...)
	}
	return out
}
