package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestDeadlineTokenRoundTrip(t *testing.T) {
	SetPropagation(true)
	defer SetPropagation(false)

	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	tok := DeadlineToken(ctx)
	if !strings.HasPrefix(tok, "deadline=") {
		t.Fatalf("token %q lacks prefix", tok)
	}
	d, ok := ParseDeadlineToken(tok)
	if !ok {
		t.Fatalf("ParseDeadlineToken(%q) not ok", tok)
	}
	if d <= 0 || d > 1500*time.Millisecond {
		t.Fatalf("remaining budget %v out of range", d)
	}
}

func TestDeadlineTokenExpired(t *testing.T) {
	SetPropagation(true)
	defer SetPropagation(false)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	tok := DeadlineToken(ctx)
	if tok != "deadline=0" {
		t.Fatalf("expired deadline token = %q, want deadline=0", tok)
	}
	d, ok := ParseDeadlineToken(tok)
	if !ok || d != 0 {
		t.Fatalf("parse of %q = %v, %v", tok, d, ok)
	}
}

func TestDeadlineTokenNoDeadline(t *testing.T) {
	SetPropagation(true)
	defer SetPropagation(false)
	if tok := DeadlineToken(context.Background()); tok != "" {
		t.Fatalf("token without deadline = %q, want empty", tok)
	}
}

func TestParseDeadlineTokenRejectsMalformed(t *testing.T) {
	for _, f := range []string{"", "deadline=", "deadline=-5", "deadline=abc", "deadline=1.5", "trace=1/2", "1500",
		// Budgets past the largest Duration would overflow to a negative
		// (or tiny) deadline and shed instead of being rejected.
		"deadline=9223372036855", "deadline=18446744073709"} {
		if _, ok := ParseDeadlineToken(f); ok {
			t.Errorf("ParseDeadlineToken(%q) accepted", f)
		}
	}
}

func TestStripDeadlineToken(t *testing.T) {
	fields := []string{"LOAD", "cap", "0", "10", "deadline=250"}
	rest, d, ok := StripDeadlineToken(fields)
	if !ok || d != 250*time.Millisecond {
		t.Fatalf("strip = %v, %v", d, ok)
	}
	if len(rest) != 4 || rest[3] != "10" {
		t.Fatalf("rest = %v", rest)
	}
	// Non-token trailing field is untouched.
	rest, _, ok = StripDeadlineToken([]string{"STATUS"})
	if ok || len(rest) != 1 {
		t.Fatalf("STATUS stripped: %v %v", rest, ok)
	}
}

// TestStripTokenOrder exercises the full wire order: servers strip trace
// (emitted last) first, then deadline.
func TestStripTokenOrder(t *testing.T) {
	fields := []string{"RENDER", "neghip", "3/4", "deadline=900", "trace=ab/cd"}
	rest, tc, traced := StripTraceToken(fields)
	if !traced || tc.TraceID != 0xab || tc.SpanID != 0xcd {
		t.Fatalf("trace strip = %+v, %v", tc, traced)
	}
	rest, d, ok := StripDeadlineToken(rest)
	if !ok || d != 900*time.Millisecond {
		t.Fatalf("deadline strip = %v, %v", d, ok)
	}
	if len(rest) != 3 || rest[0] != "RENDER" || rest[2] != "3/4" {
		t.Fatalf("rest = %v", rest)
	}
}

func TestLineTokens(t *testing.T) {
	SetPropagation(true)
	defer SetPropagation(false)

	if got := LineTokens(context.Background()); got != "" {
		t.Fatalf("no-deadline no-span tokens = %q", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	got := LineTokens(ctx)
	if !strings.HasPrefix(got, " deadline=") || strings.Contains(got, "trace=") {
		t.Fatalf("deadline-only tokens = %q", got)
	}
	tr := NewTracer(8)
	sctx, span := tr.StartSpan(ctx, "test")
	defer span.Finish()
	got = LineTokens(sctx)
	di := strings.Index(got, "deadline=")
	ti := strings.Index(got, "trace=")
	if di < 0 || ti < 0 || di > ti {
		t.Fatalf("combined tokens = %q, want deadline before trace", got)
	}
}

func TestDeadlineContext(t *testing.T) {
	ctx, cancel := DeadlineContext(context.Background(), 0, true)
	defer cancel()
	<-ctx.Done() // expires immediately
	if ctx.Err() == nil {
		t.Fatal("zero-budget context did not expire")
	}
	ctx2, cancel2 := DeadlineContext(context.Background(), 0, false)
	defer cancel2()
	if _, has := ctx2.Deadline(); has {
		t.Fatal("ok=false applied a deadline")
	}
}

// TestDeadlineTokenDisabledAllocs pins the zero-cost contract: with
// propagation off, instrumented clients pay no allocation per request.
func TestDeadlineTokenDisabledAllocs(t *testing.T) {
	SetPropagation(false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if n := testing.AllocsPerRun(100, func() {
		if DeadlineToken(ctx) != "" {
			t.Fatal("token emitted while disabled")
		}
	}); n != 0 {
		t.Fatalf("DeadlineToken allocated %.1f times while disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if LineTokens(ctx) != "" {
			t.Fatal("tokens emitted while disabled")
		}
	}); n != 0 {
		t.Fatalf("LineTokens allocated %.1f times while disabled", n)
	}
}
