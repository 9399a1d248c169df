#!/bin/sh
# Metric-name schema lint.
#
# Every metric-name string literal handed to a counter()/gauge()/
# histogram() call, or to a local count() helper like the simulator's
# publish step, in src/, tools/ or bench/ must be declared in
# src/obs/schema.h. An undeclared literal is how two emitters of "the
# same" metric drift apart silently (a typo'd name merges into its own
# registry entry and every identity built on the real one goes quietly
# stale) — this grep turns that drift into a CI failure. The normal
# idiom, emitting through the schema.h constants, never trips it: the
# lint only sees raw string literals at call sites.
#
# Usage: tools/schema_lint.sh            lint the tree (exit 1 on any
#                                        undeclared name)
#        tools/schema_lint.sh --self-test  additionally prove the lint
#                                          catches a planted literal
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
schema="$root/src/obs/schema.h"
[ -r "$schema" ] || {
    echo "schema-lint: cannot read $schema" >&2
    exit 2
}

# Call sites like `registry.counter("sim.samples")` — one line, literal
# first argument. Multi-line calls and computed names (the
# kBitTicksPrefix family) are out of scope by construction: they go
# through schema.h constants already.
extract_literals() {
    grep -rhoE '(count|counter|gauge|histogram)[[:space:]]*\([[:space:]]*"[^"]+"' \
        --include='*.cc' --include='*.h' --exclude='schema.h' \
        "$root/src" "$root/tools" "$root/bench" 2>/dev/null |
        sed -E 's/.*"([^"]+)"$/\1/' | sort -u
}

lint() {
    status=0
    for name in $(extract_literals); do
        if ! grep -qF "\"$name\"" "$schema"; then
            echo "schema-lint: metric name \"$name\" is emitted but" \
                "not declared in src/obs/schema.h" >&2
            status=1
        fi
    done
    return $status
}

if [ "${1:-}" = "--self-test" ]; then
    # Plant an undeclared literal in each call form and require the
    # lint to fail on it: a lint that cannot fail gates nothing.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mkdir -p "$tmp/src" "$tmp/tools" "$tmp/bench"
    cp "$schema" "$tmp/src-schema.h"
    for call in 'x.counter("lint.selftest.bogus");' \
        'count("lint.selftest.bogus", 1);'; do
        printf '%s\n' "$call" >"$tmp/src/planted.cc"
        if (root="$tmp" schema="$tmp/src-schema.h" lint) 2>/dev/null; then
            echo "schema-lint: self-test FAILED (planted undeclared" \
                "name in '$call' was not caught)" >&2
            exit 2
        fi
    done
    echo "schema-lint: self-test OK"
fi

if ! lint; then
    echo "schema-lint: FAIL (declare the names above in" \
        "src/obs/schema.h or emit through its constants)" >&2
    exit 1
fi
echo "schema-lint: OK (every emitted metric-name literal is declared)"
