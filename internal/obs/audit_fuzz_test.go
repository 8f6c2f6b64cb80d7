package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// FuzzAuditJSON checks that every audit line is one line of valid JSON that
// carries the event back: app, sql and err round-trip exactly (invalid UTF-8
// decodes as U+FFFD per byte, as encoding/json does), and latencyMS lies
// within half a microsecond of the event's value, printed byte for byte as
// strconv's three-decimal form except at an exact half-microsecond tie. The
// committed corpus under testdata/fuzz holds the strings Go-style quoting
// got wrong: control bytes, DEL, invalid UTF-8, \a and \v, U+2028, and a
// quote/backslash mix, plus a long clean SQL text.
func FuzzAuditJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, app, sql, errText string, latencyMS float64) {
		if math.IsNaN(latencyMS) || math.IsInf(latencyMS, 0) {
			t.Skip("not a JSON number under any encoding")
		}
		var buf bytes.Buffer
		a := NewAuditor(&buf)
		a.Emit(&AuditEvent{TimeUnixNano: 1, App: app, SQL: sql, Outcome: "completed", LatencyMS: latencyMS, Err: errText})
		a.Flush()
		line := buf.Bytes()
		if bytes.IndexByte(line, '\n') != len(line)-1 {
			t.Fatalf("event is not exactly one line: %q", line)
		}
		var got struct {
			App       string          `json:"app"`
			SQL       string          `json:"sql"`
			Err       string          `json:"err"`
			LatencyMS json.RawMessage `json:"latencyMS"`
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("audit line is not JSON: %v\n%s", err, line)
		}
		for _, field := range []struct{ name, got, sent string }{
			{"app", got.App, app}, {"sql", got.SQL, sql}, {"err", got.Err, errText},
		} {
			if want := string([]rune(field.sent)); field.got != want {
				t.Errorf("%s round-tripped as %q, want %q", field.name, field.got, want)
			}
		}
		ms, err := strconv.ParseFloat(string(got.LatencyMS), 64)
		if err != nil {
			t.Fatalf("latencyMS %s: %v", got.LatencyMS, err)
		}
		if diff := math.Abs(ms - latencyMS); diff > 0.0005+math.Abs(latencyMS)*0x1p-50 {
			t.Errorf("latencyMS decoded as %v, %g away from %v", ms, diff, latencyMS)
		}
		if want := strconv.AppendFloat(nil, latencyMS, 'f', 3, 64); !bytes.Equal(got.LatencyMS, want) && !halfMicroTie(latencyMS) {
			t.Errorf("latencyMS printed as %s, want %s", got.LatencyMS, want)
		}
	})
}

// halfMicroTie reports whether ms*1000, as computed in float64, sits within
// one ulp of a half-microsecond, where rounding the product and rounding the
// exact decimal value may legitimately disagree.
func halfMicroTie(ms float64) bool {
	x := math.Abs(ms) * 1000
	ulp := math.Nextafter(x, math.Inf(1)) - x
	return math.Abs(x-math.Floor(x)-0.5) <= ulp
}
