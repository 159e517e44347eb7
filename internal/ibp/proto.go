package ibp

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// The wire protocol is a text command line followed by optional binary
// payload, one request/response pair at a time on a persistent connection:
//
//	ALLOCATE <size> <leaseMs> <policy>          -> OK <read> <write> <manage>
//	STORE <writeCap> <offset> <len> + <len> raw -> OK <len>
//	LOAD <readCap> <offset> <len>               -> OK <len> + <len> raw
//	PROBE <manageCap>                           -> OK <size> <expiresUnixMs> <policy>
//	EXTEND <manageCap> <leaseMs>                -> OK <expiresUnixMs>
//	FREE <manageCap>                            -> OK 0
//	COPY <readCap> <off> <len> <addr> <wCap> <tOff> -> OK <len>
//	STATUS                                      -> OK <capacity> <used> <allocs>
//	PIPELINE <window>                           -> OK <window>  (mode switch)
//
// Errors: "ERR <CODE> <message>". Codes map 1:1 to the package's typed
// errors so in-process and remote callers see identical semantics.
//
// PIPELINE switches the connection into tagged multiplexed mode: every
// subsequent request carries a trailing "tag=<n>" token (ordered before
// the optional deadline=/trace= tokens) and every response line is
// prefixed "T<n> " with the matching tag. Responses may arrive out of
// order; the server bounds concurrent execution at the granted window. A
// depot that predates the verb answers "ERR PROTO unknown verb PIPELINE"
// and drops the connection, which the client reads as "speak serial
// here". docs/PROTOCOL.md is the authoritative reference.

const maxLineLen = 4096

// maxTransfer bounds a single STORE/LOAD/COPY payload (64 MiB) so a
// malformed length cannot balloon server memory.
const maxTransfer = 64 << 20

// wire error codes.
const (
	codeNoCap    = "NOCAP"
	codeExpired  = "EXPIRED"
	codeRevoked  = "REVOKED"
	codeNoSpace  = "NOSPACE"
	codeDuration = "DURATION"
	codeBadParam = "BADPARAM"
	codeRange    = "RANGE"
	codeProto    = "PROTO"
	codeBusy     = "BUSY"
	codeInternal = "INTERNAL"
)

// ErrProto reports a malformed request or response.
var ErrProto = errors.New("ibp: protocol error")

// ErrPipeBroken reports that a pipelined connection died while requests
// were in flight (depot restart, network drop, watchdog timeout). Every
// in-flight request on the pipe fails with it; callers treat it exactly
// like a failed replica attempt (retry elsewhere or redial), never as a
// data error.
var ErrPipeBroken = errors.New("ibp: pipelined connection broken")

// DefaultPipelineWindow is the in-flight window a pipelined connection
// uses when neither side configures one. Sized for a striped view set:
// deep enough that a whole stripe fan-out (typically 4-16 extents) rides
// one round trip, small enough to bound per-connection depot memory.
const DefaultPipelineWindow = 32

// maxPipelineWindow caps what a client may request, bounding the
// server-side buffering one connection can demand.
const maxPipelineWindow = 256

// tagPrefix marks the per-request tag token on pipelined connections.
// On the wire it is ordered before deadline= and trace=, so servers
// strip trace (last), then deadline, then tag.
const tagPrefix = "tag="

// responseTagPrefix starts every response line on a pipelined
// connection: "T<n> OK ..." / "T<n> ERR ...".
const responseTagPrefix = "T"

// StripTagToken removes a trailing tag=<n> token from parsed request
// fields. The transport calls it after StripTraceToken and
// StripDeadlineToken; ok is false when the last field is not a
// well-formed tag, which on a pipelined connection is a protocol error.
func StripTagToken(fields []string) ([]string, uint64, bool) {
	if len(fields) == 0 {
		return fields, 0, false
	}
	last := fields[len(fields)-1]
	if !strings.HasPrefix(last, tagPrefix) {
		return fields, 0, false
	}
	tag, err := strconv.ParseUint(last[len(tagPrefix):], 10, 64)
	if err != nil {
		return fields, 0, false
	}
	return fields[:len(fields)-1], tag, true
}

// parseResponseTag splits the "T<n>" prefix off a pipelined response
// line's first field.
func parseResponseTag(field string) (uint64, bool) {
	if !strings.HasPrefix(field, responseTagPrefix) {
		return 0, false
	}
	tag, err := strconv.ParseUint(field[len(responseTagPrefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return tag, true
}

// ErrBusy reports that admission control shed the request: the depot is
// overloaded (or the request's deadline budget was already exhausted on
// arrival) and the caller should retry elsewhere, not here. Pre-BUSY
// clients see it as a generic remote error, which they already treat as
// a failed attempt, so adding the code is backward compatible.
var ErrBusy = errors.New("ibp: depot busy, retry elsewhere")

// codeOf maps a typed error to its wire code.
func codeOf(err error) string {
	switch {
	case errors.Is(err, ErrNoCap):
		return codeNoCap
	case errors.Is(err, ErrExpired):
		return codeExpired
	case errors.Is(err, ErrRevoked):
		return codeRevoked
	case errors.Is(err, ErrNoSpace):
		return codeNoSpace
	case errors.Is(err, ErrDuration):
		return codeDuration
	case errors.Is(err, ErrBadParam):
		return codeBadParam
	case errors.Is(err, ErrRange):
		return codeRange
	case errors.Is(err, ErrProto):
		return codeProto
	case errors.Is(err, ErrBusy):
		return codeBusy
	default:
		return codeInternal
	}
}

// errOf maps a wire code back to the typed error, wrapping the message.
func errOf(code, msg string) error {
	base := map[string]error{
		codeNoCap:    ErrNoCap,
		codeExpired:  ErrExpired,
		codeRevoked:  ErrRevoked,
		codeNoSpace:  ErrNoSpace,
		codeDuration: ErrDuration,
		codeBadParam: ErrBadParam,
		codeRange:    ErrRange,
		codeProto:    ErrProto,
		codeBusy:     ErrBusy,
	}[code]
	if base == nil {
		return fmt.Errorf("ibp: remote error %s: %s", code, msg)
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// Dialer abstracts connection establishment so tests and experiments can
// inject netsim-shaped links. *netsim.Dialer satisfies it.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// NetDialer dials plain TCP.
type NetDialer struct{}

// Dial implements Dialer.
func (NetDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// parseFields splits a protocol line and validates the verb.
func parseFields(line string) []string {
	return strings.Fields(strings.TrimSpace(line))
}
