#!/usr/bin/env bash
# Non-test lines of code per package: every *.go that is not a _test.go,
# minus comment-only and blank lines — the count ROADMAP aim 2 tracks.
# Prints a table and fails when internal/core exceeds the ceiling recorded
# in ci/loc-ceiling.txt. Lower the ceiling when a change shrinks the
# package; raising it is a decision to review, not a number to bump.
set -euo pipefail
cd "$(dirname "$0")/.."

loc() {
	local files
	files=$(ls "$1"/*.go 2>/dev/null | grep -v '_test\.go$' || true)
	if [ -z "$files" ]; then
		echo 0
		return
	fi
	# shellcheck disable=SC2086
	cat $files | grep -v '^\s*//' | grep -v '^\s*$' | wc -l
}

printf '%-28s %8s\n' package loc
total=0
for dir in $(go list -f '{{.Dir}}' ./... | sed "s|^$PWD/\?||" | sed 's|^$|.|'); do
	n=$(loc "$dir")
	total=$((total + n))
	printf '%-28s %8d\n' "$dir" "$n"
done
printf '%-28s %8d\n' total "$total"

ceiling=$(grep -v '^#' ci/loc-ceiling.txt | tr -d '[:space:]')
core=$(loc internal/core)
if [ "$core" -gt "$ceiling" ]; then
	echo "internal/core has $core non-test lines, over the ceiling of $ceiling in ci/loc-ceiling.txt" >&2
	exit 1
fi
echo "internal/core: $core of $ceiling allowed"
