package obs

// Deadline propagation: the overload-control half of context propagation.
//
// A client whose context carries a deadline tells the server how much time
// its request has left with one optional trailing line-protocol token
// "deadline=<ms>" (remaining milliseconds, base 10). Servers re-derive an
// absolute deadline from their own clock, so only the remaining budget —
// not a wall-clock timestamp — crosses the wire and clock skew between
// hosts cannot invert it. A depot or server agent that sees an exhausted
// budget drops the work instead of serving a client that has already
// moved on.
//
// The token rides next to the trace= token and follows the same
// compatibility contract: it is emitted ONLY when propagation is enabled
// (Serve / SetPropagation), pre-propagation servers never see it, and
// with propagation off DeadlineToken returns "" without allocating —
// TestDeadlineTokenDisabledAllocs pins that down. On the wire the client
// emits "... deadline=<ms> trace=<tid>/<sid>"; servers strip trace first
// (it is last), then deadline.

import (
	"context"
	"math"
	"strconv"
	"strings"
	"time"
)

// deadlinePrefix marks the optional trailing deadline field on line
// protocols.
const deadlinePrefix = "deadline="

// DeadlineToken returns the request-line token "deadline=<ms>" for the
// remaining budget of ctx's deadline, or "" when propagation is disabled
// or ctx has no deadline. An already-expired deadline yields
// "deadline=0", telling the server to drop the request outright. The ""
// path performs no allocation.
func DeadlineToken(ctx context.Context) string {
	if !propagationOn.Load() {
		return ""
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return ""
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return deadlinePrefix + strconv.FormatInt(ms, 10)
}

// ParseDeadlineToken parses one request-line field. ok is true only for a
// well-formed "deadline=<ms>" token with a non-negative integer budget
// that fits a time.Duration; any other field returns false.
func ParseDeadlineToken(field string) (time.Duration, bool) {
	if !strings.HasPrefix(field, deadlinePrefix) {
		return 0, false
	}
	ms, err := strconv.ParseInt(field[len(deadlinePrefix):], 10, 64)
	if err != nil || ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// StripDeadlineToken removes a trailing deadline token from parsed
// request fields, returning the remaining fields and the remaining
// budget (if present). Servers call it after StripTraceToken (the trace
// token is emitted last) and before argument-count checks.
func StripDeadlineToken(fields []string) ([]string, time.Duration, bool) {
	if len(fields) == 0 {
		return fields, 0, false
	}
	d, ok := ParseDeadlineToken(fields[len(fields)-1])
	if !ok {
		return fields, 0, false
	}
	return fields[:len(fields)-1], d, true
}

// LineTokens returns the optional trailing tokens for one request line:
// "" (no allocation) when propagation is off or ctx carries neither a
// deadline nor a span, otherwise " deadline=<ms>", " trace=<tid>/<sid>",
// or both in that order, with a leading space so callers can append it
// directly before the terminating newline.
func LineTokens(ctx context.Context) string {
	if !propagationOn.Load() {
		return ""
	}
	dtok := DeadlineToken(ctx)
	ttok := TraceToken(ctx)
	switch {
	case dtok == "" && ttok == "":
		return ""
	case dtok == "":
		return " " + ttok
	case ttok == "":
		return " " + dtok
	default:
		return " " + dtok + " " + ttok
	}
}

// DeadlineContext applies a remaining budget parsed off the wire to a
// server-side context: it returns ctx bounded by now+remaining and the
// cancel func that must be called when request handling ends. With
// ok=false it returns ctx unchanged and a no-op cancel, so call sites
// need no branch.
func DeadlineContext(ctx context.Context, remaining time.Duration, ok bool) (context.Context, context.CancelFunc) {
	if !ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, remaining)
}
