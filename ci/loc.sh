#!/usr/bin/env bash
# Non-test lines of code per package: every *.go that is not a _test.go,
# minus comment-only and blank lines — the count ROADMAP aim 2 tracks.
# Prints a table and fails when a package exceeds its ceiling in
# ci/loc-ceiling.txt ("package ceiling" per line). Lower a ceiling when a
# change shrinks its package; raising one is a decision to review, not a
# number to bump.
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

status=0
while read -r pkg ceiling; do
	n=$(loc "$pkg")
	if [ "$n" -gt "$ceiling" ]; then
		echo "$pkg has $n non-test lines, over the ceiling of $ceiling in ci/loc-ceiling.txt" >&2
		status=1
	fi
	echo "$pkg: $n of $ceiling allowed"
done < <(grep -v '^#' ci/loc-ceiling.txt | grep -v '^\s*$')
exit $status
