#!/bin/sh
# check-selectors.sh fails when a test selector that the Makefile or the CI
# workflow names matches no test. It reads every `go test` command there,
# takes each `-run`/`-fuzz` pattern apart at its top-level `|`, and asks
# `go test -list` whether each alternative still names a test, benchmark,
# fuzz target or example in each listed package. A renamed test otherwise
# empties its step without failing it. `-run '^$'` (run nothing, used next
# to -bench and -fuzz) is skipped.
#
# Usage: sh scripts/check-selectors.sh [file ...]
# (default: Makefile .github/workflows/ci.yml; GO overrides the go command)
set -eu
GO=${GO:-go}
[ $# -gt 0 ] || set -- Makefile .github/workflows/ci.yml

# One `go test` command per line: join backslash continuations, undo make's
# $$ escape and $(GO), and drop everything that is not a go test command.
commands=$(for f in "$@"; do
	sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$f" |
		sed -e 's/\$\$/$/g' -e 's/\$(GO)/go/g' |
		grep -E '(^|[[:space:]])go test ' || true
done)

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
echo "$commands" | while IFS= read -r line; do
	[ -n "$line" ] || continue
	pkgs=$(echo "$line" | grep -oE "(^|[[:space:]])\./[^[:space:]']*" | tr -d ' \t' || true)
	[ -n "$pkgs" ] || pkgs=.
	echo "$line" | grep -oE -- "-(run|fuzz) '[^']*'" | while read -r flag pat; do
		pat=${pat#\'}
		pat=${pat%\'}
		[ "$pat" = '^$' ] && continue
		# Only the top-level test name matters to -list: drop subtest parts.
		echo "$pat" | tr '|' '\n' | while IFS= read -r alt; do
			alt=${alt%%/*}
			for p in $pkgs; do
				if ! "$GO" test -list "$alt" "$p" >"$tmp" 2>&1; then
					echo "selectors: go test -list '$alt' $p failed:" >&2
					cat "$tmp" >&2
					exit 1
				fi
				if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' "$tmp"; then
					echo "selectors: $flag '$pat' ($alt) matches no test in $p: $line" >&2
					exit 1
				fi
			done
		done || exit 1
	done || exit 1
done
echo "selectors: every -run/-fuzz pattern in $* matches a test"
