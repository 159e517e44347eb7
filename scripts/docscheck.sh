#!/bin/sh
# Docs audit: the operator docs must not drift from the source.
#
#  1. Every command-line flag defined in cmd/*/main.go must appear in
#     docs/OPERATIONS.md as `-flagname`.
#  2. Every metric family and span name declared in
#     internal/obs/names.go must appear in docs/OBSERVABILITY.md.
#  3. Every HTTP endpoint the obs mux serves (including the SLO stack's
#     extra handlers) must appear in docs/OBSERVABILITY.md.
#  4. Every wire verb a server dispatches (for IBP: every verb handler
#     registered on the shared transport, all nine of them), every IBP
#     error code, and the optional request-line tokens must appear in
#     docs/PROTOCOL.md — it claims to be the authoritative protocol
#     reference, so it must not drift from the dispatch code.
#  5. Every /debug/* endpoint registered anywhere under internal/obs
#     (including the flight recorder's /debug/capture routes) and every
#     runtime.* family in names.go must appear in docs/OBSERVABILITY.md.
#  6. The fleet federation surface must be documented: every fleet.*
#     family in names.go, the /debug/fleet endpoints, and every built-in
#     fleet SLO rule name in internal/obs/slo must appear in
#     docs/OBSERVABILITY.md, and the rule names in the
#     docs/OPERATIONS.md runbook too.
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "== flags vs docs/OPERATIONS.md"
for main in cmd/*/main.go; do
	cmdname=$(basename "$(dirname "$main")")
	flags=$(grep -oE 'flag\.[A-Za-z0-9]+\("[^"]+"' "$main" | sed 's/.*("\([^"]*\)"/\1/' | sort -u)
	for f in $flags; do
		if ! grep -qE -- "(^|[\`| ])-$f(\`|,| |\$)" docs/OPERATIONS.md; then
			echo "MISSING: flag -$f of $cmdname not documented in docs/OPERATIONS.md" >&2
			fail=1
		fi
	done
done

echo "== metric names vs docs/OBSERVABILITY.md"
names=$(grep -oE '= "[a-z][a-z0-9._]+"' internal/obs/names.go | sed 's/= "\(.*\)"/\1/' | sort -u)
for n in $names; do
	if ! grep -qF -- "$n" docs/OBSERVABILITY.md; then
		echo "MISSING: metric/span name $n not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done

echo "== HTTP endpoints vs docs/OBSERVABILITY.md"
endpoints=$({ grep -hE 'mux\.Handle' internal/obs/http.go | grep -oE '"/[a-z0-9/]+"' || true
	grep -oE '"/[a-z0-9/]+"' internal/obs/slo/stack.go || true
} | tr -d '"' | sed 's|^/debug/pprof/.*|/debug/pprof/|' | sort -u)
for e in $endpoints; do
	if ! grep -qF -- "$e" docs/OBSERVABILITY.md; then
		echo "MISSING: endpoint $e not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done

echo "== wire verbs, error codes, and tokens vs docs/PROTOCOL.md"
# Verbs are collected from the server dispatch code itself, so adding a
# verb without documenting it fails here. IBP verbs (depot and edge) are
# the `"VERB": {...}` handler registrations each server passes to
# ibp.NewTransport, plus the transport's own PIPELINE mode switch; the
# DVS and agent servers still dispatch with case "VERB" / == "VERB".
ibpverbs=$(grep -rhoE --include='*.go' --exclude='*_test.go' \
	'^[[:space:]]*"[A-Z]+": +\{|== "PIPELINE"' internal/ibp internal/edge \
	| grep -oE '"[A-Z]+"' | tr -d '"' | sort -u)
# A moved or renamed registration must not silently drop verbs from the
# audit: all nine IBP verbs have to be found.
for v in ALLOCATE STORE LOAD PROBE EXTEND FREE COPY STATUS PIPELINE; do
	if ! printf '%s\n' "$ibpverbs" | grep -qx "$v"; then
		echo "docscheck: IBP verb $v not found in the transport handler registrations" >&2
		exit 1
	fi
done
otherverbs=$(grep -hoE '(case |== )"[A-Z]+"' \
	internal/dvs/dvs.go internal/agent/remote.go internal/agent/serveragent.go \
	| grep -oE '"[A-Z]+"' | tr -d '"')
verbs=$(printf '%s\n%s\n' "$ibpverbs" "$otherverbs" | sort -u)
for v in $verbs; do
	if ! grep -qE "(^|[\`| ])$v(\`| |\$)" docs/PROTOCOL.md; then
		echo "MISSING: wire verb $v not documented in docs/PROTOCOL.md" >&2
		fail=1
	fi
done
codes=$(sed -n 's/^\tcode[A-Za-z]* *= *"\([A-Z]*\)"$/\1/p' internal/ibp/proto.go | sort -u)
[ -n "$codes" ] || { echo "docscheck: extracted no IBP error codes" >&2; exit 1; }
for c in $codes; do
	if ! grep -qF -- "\`$c\`" docs/PROTOCOL.md; then
		echo "MISSING: IBP error code $c not documented in docs/PROTOCOL.md" >&2
		fail=1
	fi
done
for tok in tag= deadline= trace=; do
	if ! grep -qF -- "$tok" docs/PROTOCOL.md; then
		echo "MISSING: request-line token $tok not documented in docs/PROTOCOL.md" >&2
		fail=1
	fi
done

echo "== debug endpoints and runtime families vs docs/OBSERVABILITY.md"
# Audit #3 reads only the mux registrations; this sweep catches every
# /debug/* path string anywhere in internal/obs (handlers that route by
# prefix, like the flight recorder's /debug/capture, included).
# Tests probe deliberately-bogus paths (404 cases), so only non-test
# sources define the documented surface.
debugeps=$(grep -rhoE --exclude='*_test.go' '"/debug/[a-z0-9/]*"' internal/obs \
	| tr -d '"' | sed 's|^/debug/pprof/.*|/debug/pprof/|' | sed 's|/$||' | sort -u)
[ -n "$debugeps" ] || { echo "docscheck: extracted no /debug endpoints" >&2; exit 1; }
for e in $debugeps; do
	if ! grep -qF -- "$e" docs/OBSERVABILITY.md; then
		echo "MISSING: debug endpoint $e not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done
runtimefams=$(grep -oE '= "runtime\.[a-z0-9._]+"' internal/obs/names.go | sed 's/= "\(.*\)"/\1/' | sort -u)
[ -n "$runtimefams" ] || { echo "docscheck: extracted no runtime.* families from names.go" >&2; exit 1; }
for n in $runtimefams; do
	if ! grep -qF -- "$n" docs/OBSERVABILITY.md; then
		echo "MISSING: runtime family $n not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done

echo "== fleet federation surface vs docs"
fleetfams=$(grep -oE '= "fleet\.[a-z0-9._]+"' internal/obs/names.go | sed 's/= "\(.*\)"/\1/' | sort -u)
[ -n "$fleetfams" ] || { echo "docscheck: extracted no fleet.* families from names.go" >&2; exit 1; }
for n in $fleetfams; do
	if ! grep -qF -- "$n" docs/OBSERVABILITY.md; then
		echo "MISSING: fleet family $n not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done
for e in /debug/fleet /debug/fleet/tsdb; do
	if ! grep -qF -- "$e" docs/OBSERVABILITY.md; then
		echo "MISSING: fleet endpoint $e not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done
# Built-in fleet rule names come from the FleetDefaultRules source, so
# renaming a rule without updating the alert docs fails here.
fleetrules=$(grep -hoE 'Name: *"fleet-[a-z-]+"' internal/obs/slo/*.go | grep -oE '"fleet-[a-z-]+"' | tr -d '"' | sort -u)
[ -n "$fleetrules" ] || { echo "docscheck: extracted no fleet rule names from internal/obs/slo" >&2; exit 1; }
for r in $fleetrules; do
	for doc in docs/OBSERVABILITY.md docs/OPERATIONS.md; do
		if ! grep -qF -- "$r" "$doc"; then
			echo "MISSING: fleet rule $r not documented in $doc" >&2
			fail=1
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	echo "docs audit failed" >&2
	exit 1
fi
echo "docs audit passed"
