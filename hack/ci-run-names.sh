#!/usr/bin/env bash
# ci-run-names.sh — every test a CI -run pattern names still exists.
#
# `go test -run P` passes when P matches nothing, so a renamed or
# deleted test drops out of CI silently. For each `go test ... -run P
# PKG...` line of the workflow, this splits P's top level (the part
# before any `/`) on `|` and fails unless every alternative other than
# `^$` (which runs nothing on purpose) matches a name `go test -list`
# prints for that line's packages, under `-race` when the line has it
# (a `!race` file's tests are not there) and with the line's
# `GOEXPERIMENT=...` prefix applied (a file tagged with an experiment
# lists its tests only under it). Alternatives are matched with
# `grep -E`, which reads the plain names and anchors CI uses as RE2 does.
#
# Usage: bash hack/ci-run-names.sh [workflow.yml]
set -euo pipefail
set -f # no globbing when a line is split into words
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

declare -A listed # "experiment flags pkg" -> the names go test -list prints
missing=0
while IFS= read -r line; do
	[[ $line =~ ^[[:space:]]*# ]] && continue
	[[ $line =~ go\ test\ .*-run[=\ ]+(\'([^\']*)\'|\"([^\"]*)\"|([^ ]+)) ]] || continue
	pattern=${BASH_REMATCH[2]}${BASH_REMATCH[3]}${BASH_REMATCH[4]}
	[[ $pattern == '^$' ]] && continue
	experiment=
	[[ $line =~ (GOEXPERIMENT=[^[:space:]]+)[[:space:]]+go\ test ]] && experiment=${BASH_REMATCH[1]}
	flags=
	[[ $line == *' -race '* ]] && flags=-race
	pkgs=()
	for word in $line; do
		word=${word//[\'\"]/}
		[[ $word == . || $word == ./* ]] && pkgs+=("$word")
	done
	if ((${#pkgs[@]} == 0)); then
		echo "no package on: $line" >&2
		missing=1
		continue
	fi
	names=
	for pkg in "${pkgs[@]}"; do
		key="$experiment $flags $pkg"
		if [[ -z ${listed[$key]+set} ]]; then
			listed[$key]=$(env $experiment go test $flags -list . "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
		fi
		names+=${listed[$key]}$'\n'
	done
	IFS='|' read -ra alts <<<"${pattern%%/*}"
	for alt in "${alts[@]}"; do
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "-run alternative '$alt' names no test in ${pkgs[*]}${flags:+ ($flags)}${experiment:+ ($experiment)}" >&2
			missing=1
		fi
	done
done <"$workflow"
exit "$missing"
