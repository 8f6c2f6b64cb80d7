package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// AuditEvent is one structured record in the audit stream: a query that
// reached a terminal state (completed, failed, rejected, shed, evicted, or
// annotated when no scheduler is attached). Together the events replay the
// workload's admission history — what arrived, what the planes decided, and
// what it cost.
type AuditEvent struct {
	TimeUnixNano int64   // event time (settle time)
	App          string  // application stream
	SQL          string  // raw query text
	Outcome      string  // terminal outcome tag (Outcome.String())
	Class        string  // predicted resource class, "" when unlabeled
	SLAClass     string  // SLA accounting class, "" outside the sched plane
	Backend      string  // backend of the settling attempt, "" if never dispatched
	LatencyMS    float64 // submit → settle, milliseconds
	Attempts     int     // dispatch attempts (0 if never dispatched)
	Hedged       bool    // a speculative hedge clone was dispatched
	Err          string  // terminal error, "" on success
}

// AuditSink consumes audit events. Emit is called outside the dispatcher's
// lock but possibly from many goroutines; implementations must be
// concurrency-safe and must not retain ev past the call (the caller may
// reuse it).
type AuditSink interface {
	Emit(ev *AuditEvent)
}

// auditFlushAt is the buffered-byte threshold past which the Auditor writes
// through to its sink writer.
const auditFlushAt = 32 * 1024

// Auditor is the built-in AuditSink: JSON lines onto an io.Writer, encoded
// by hand into one grown-once buffer so steady-state emission does not
// allocate per event. Writes are buffered and flushed at a size threshold;
// call Flush (or Close) to push out the tail.
type Auditor struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte

	events   atomic.Uint64
	bytesOut atomic.Uint64
	errs     atomic.Uint64
}

// NewAuditor returns an auditor writing JSON lines to w.
func NewAuditor(w io.Writer) *Auditor {
	return &Auditor{w: w, buf: make([]byte, 0, auditFlushAt+4096)}
}

// Emit encodes one event as a JSON line into the buffer, flushing to the
// underlying writer when the buffer passes its threshold. Concurrency-safe.
func (a *Auditor) Emit(ev *AuditEvent) {
	if a == nil || ev == nil {
		return
	}
	a.mu.Lock()
	a.buf = appendAuditJSON(a.buf, ev)
	a.events.Add(1)
	if len(a.buf) >= auditFlushAt {
		a.flushLocked()
	}
	a.mu.Unlock()
}

// appendAuditJSON renders ev as one JSON object plus newline. Optional
// fields (class, slaClass, backend, err, hedged, attempts) are omitted at
// their zero values to keep lines compact.
func appendAuditJSON(buf []byte, ev *AuditEvent) []byte {
	buf = append(buf, `{"ts":`...)
	buf = strconv.AppendInt(buf, ev.TimeUnixNano, 10)
	buf = append(buf, `,"app":`...)
	buf = appendJSONString(buf, ev.App)
	buf = append(buf, `,"sql":`...)
	buf = appendJSONString(buf, ev.SQL)
	buf = append(buf, `,"outcome":`...)
	buf = appendJSONString(buf, ev.Outcome)
	if ev.Class != "" {
		buf = append(buf, `,"class":`...)
		buf = appendJSONString(buf, ev.Class)
	}
	if ev.SLAClass != "" {
		buf = append(buf, `,"slaClass":`...)
		buf = appendJSONString(buf, ev.SLAClass)
	}
	if ev.Backend != "" {
		buf = append(buf, `,"backend":`...)
		buf = appendJSONString(buf, ev.Backend)
	}
	buf = append(buf, `,"latencyMS":`...)
	buf = appendMillis(buf, ev.LatencyMS)
	if ev.Attempts != 0 {
		buf = append(buf, `,"attempts":`...)
		buf = strconv.AppendInt(buf, int64(ev.Attempts), 10)
	}
	if ev.Hedged {
		buf = append(buf, `,"hedged":true`...)
	}
	if ev.Err != "" {
		buf = append(buf, `,"err":`...)
		buf = appendJSONString(buf, ev.Err)
	}
	buf = append(buf, '}', '\n')
	return buf
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Runs of bytes that
// need no escaping are copied with one append; only '"', '\\', control
// bytes, invalid UTF-8 (as \ufffd, which is what encoding/json decodes it
// to) and U+2028/U+2029 (which break JavaScript embedding) are escaped.
// strconv.Quote is not a substitute: its \x and \a escapes are not JSON.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', hexDigits[r>>12], hexDigits[r>>8&0xf], hexDigits[r>>4&0xf], hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendMillis appends a millisecond value with three decimals (microsecond
// resolution) as an integer count of microseconds split at the decimal
// point, which is exact and avoids strconv's slow fixed-precision path. It
// matches strconv.AppendFloat(buf, ms, 'f', 3, 64) except that an exact
// half-microsecond tie may round the other way; values too large for int64
// microseconds (and NaN/Inf) take the strconv path.
func appendMillis(buf []byte, ms float64) []byte {
	if !(math.Abs(ms) < 1e15) {
		return strconv.AppendFloat(buf, ms, 'f', 3, 64)
	}
	if math.Signbit(ms) {
		buf = append(buf, '-')
		ms = -ms
	}
	us := int64(math.Round(ms * 1000))
	buf = strconv.AppendInt(buf, us/1000, 10)
	frac := us % 1000
	return append(buf, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// flushLocked writes the buffer through. Callers hold a.mu.
func (a *Auditor) flushLocked() {
	if len(a.buf) == 0 || a.w == nil {
		return
	}
	n, err := a.w.Write(a.buf)
	a.bytesOut.Add(uint64(n))
	if err != nil {
		a.errs.Add(1)
	}
	a.buf = a.buf[:0]
}

// Flush writes any buffered events to the underlying writer.
func (a *Auditor) Flush() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.flushLocked()
	a.mu.Unlock()
}

// Close flushes and, when the underlying writer is an io.Closer, closes it.
func (a *Auditor) Close() error {
	if a == nil {
		return nil
	}
	a.Flush()
	if c, ok := a.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// AuditorStats is a snapshot of the auditor's own accounting.
type AuditorStats struct {
	Events   uint64 `json:"events"`
	BytesOut uint64 `json:"bytesOut"`
	Errors   uint64 `json:"errors"`
}

// Stats snapshots the auditor's counters. Valid on a nil *Auditor (zeros).
func (a *Auditor) Stats() AuditorStats {
	if a == nil {
		return AuditorStats{}
	}
	return AuditorStats{
		Events:   a.events.Load(),
		BytesOut: a.bytesOut.Load(),
		Errors:   a.errs.Load(),
	}
}

// Register exposes the auditor's accounting on a metrics registry:
// querc_audit_events_total, querc_audit_bytes_total,
// querc_audit_errors_total. No-op on a nil auditor or registry.
func (a *Auditor) Register(r *Registry) {
	if a == nil || r == nil {
		return
	}
	r.CounterFunc("querc_audit_events_total",
		"Audit events emitted.",
		func() float64 { return float64(a.events.Load()) })
	r.CounterFunc("querc_audit_bytes_total",
		"Audit bytes written to the sink.",
		func() float64 { return float64(a.bytesOut.Load()) })
	r.CounterFunc("querc_audit_errors_total",
		"Audit sink write errors.",
		func() float64 { return float64(a.errs.Load()) })
}
