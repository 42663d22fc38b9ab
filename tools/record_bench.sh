#!/usr/bin/env sh
# Record bench trajectories: run every bench binary and wrap its stdout and
# wall-clock seconds into BENCH_<name>.json, one file per bench, so PRs can
# commit/compare runs over time.
#
# Usage: tools/record_bench.sh [--check-regression] [build-dir] [out-dir] [bench-name...]
#
# With no bench names, records every bench_* binary. Naming one or more
# benches (with or without the bench_ prefix) records just those in one
# invocation, e.g.:
#   tools/record_bench.sh build . hostile adversary
#
# --check-regression diffs every fresh ms/step figure against the same row
# of the previously committed BENCH_<name>.json (markdown-table cells and
# embedded-JSON "ms_per_step" entries alike) and exits non-zero when any
# row slowed down by more than 25%, or when a committed row has no fresh
# counterpart (a gate that compared nothing must not pass) — the nightly
# perf gate. It prints how many rows it compared. The new file is still
# written (the recording is honest either way); only the exit status flags
# the regression.
set -eu

check_regression=0
if [ "${1:-}" = "--check-regression" ]; then
  check_regression=1
  shift
fi

build_dir=${1:-build}
out_dir=${2:-.}
if [ $# -ge 1 ]; then shift; fi
if [ $# -ge 1 ]; then shift; fi

if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found; build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir --target bench -j" >&2
  exit 1
fi

# Resolve the bench set: all bench_* binaries, or the named subset.
if [ $# -eq 0 ]; then
  set -- "$build_dir"/bench/bench_*
else
  names=$*
  set --
  for name in $names; do
    case $name in bench_*) ;; *) name="bench_$name" ;; esac
    bin="$build_dir/bench/$name"
    if [ ! -x "$bin" ]; then
      echo "error: $bin not found or not executable" >&2
      exit 1
    fi
    set -- "$@" "$bin"
  done
fi

# The kernel dispatch the run will use (scalar or avx2, decided by CPUID at
# startup; scalar only in a -DACN_SIMD=off build) — stamped into every recording's header so two
# BENCH_*.json files are only ever compared like-for-like. bench_kernels
# prints it; "unknown" when that binary isn't built.
kernel_dispatch=unknown
if [ -x "$build_dir/bench/bench_kernels" ]; then
  kernel_dispatch=$("$build_dir/bench/bench_kernels" --dispatch 2>/dev/null || echo unknown)
fi

# Provenance for like-for-like comparison: the commit the binaries were
# built from and the core count of the recording machine (a 1-core runner's
# parallel rows are not comparable to a 16-core workstation's).
git_commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
cpu_cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# Emit a JSON string literal for stdin (escape backslash, quote, newline, tab).
json_escape() {
  sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' |
    awk 'NR>1 {printf "\\n"} {printf "%s", $0}'
}

# Recover the recorded stdout from a committed BENCH_*.json (inverse of the
# json_escape line above — the files are written by this script, so the
# "stdout" field is always one line with those four escapes and no others).
json_unescape_stdout() {
  sed -n 's/^  "stdout": "\(.*\)"$/\1/p' "$1" |
    awk '{ gsub(/\\n/, "\n"); gsub(/\\t/, "\t"); gsub(/\\"/, "\""); gsub(/\\\\/, "\\"); print }'
}

# Key every ms/step figure in a bench's stdout, one "key value" pair per
# line, so two runs can be joined row by row:
#   - 10-column markdown rows with a numeric first cell (the
#     characterize-all grid): keys cell:<n>:<A>:{serial,parallel,scratch}
#   - embedded-JSON "ms_per_step" entries: keyed by the nearest preceding
#     "name" or "node_budget" (the hostile scenario/budget/delivery rows)
extract_ms_keys() {
  awk '
    {
      s = $0
      key = ""
      while (match(s, /"(name|node_budget)":("[^"]*"|[0-9]+)|"ms_per_step":[0-9.]+/)) {
        tok = substr(s, RSTART, RLENGTH)
        s = substr(s, RSTART + RLENGTH)
        if (tok ~ /^"ms_per_step"/) {
          split(tok, kv, ":")
          if (key != "") printf "json:%s %s\n", key, kv[2]
        } else {
          split(tok, kv, ":")
          key = kv[2]
          gsub(/"/, "", key)
        }
      }
    }
    /^\|/ {
      n = split($0, f, /\|/)
      if (n == 12 && f[2] ~ /^ *[0-9]+ *$/) {
        for (i = 2; i <= 10; i++) gsub(/ /, "", f[i])
        printf "cell:%s:%s:serial %s\n", f[2], f[3], f[8]
        printf "cell:%s:%s:parallel %s\n", f[2], f[3], f[9]
        printf "cell:%s:%s:scratch %s\n", f[2], f[3], f[10]
      }
    }'
}

# Joins the previous run's keys against the fresh run's; prints every row
# that slowed down >25% or vanished, and the number of rows compared, and
# returns non-zero on either failure. Rows below 0.05 ms are not judged for
# speed — at that scale the machine jitter dwarfs the signal.
report_regressions() {
  awk '
    NR == FNR { old[$1] = $2; next }
    { new[$1] = $2 }
    END {
      bad = 0
      compared = 0
      for (k in old) {
        if (!(k in new)) {
          printf "  missing: %s (committed row has no fresh counterpart)\n", k
          bad = 1
          continue
        }
        compared++
        if (old[k] + 0 >= 0.05 && new[k] + 0 > old[k] * 1.25) {
          printf "  regression: %s %.3f -> %.3f ms/step (+%.0f%%)\n",
                 k, old[k], new[k], 100 * (new[k] / old[k] - 1)
          bad = 1
        }
      }
      printf "  compared %d committed rows\n", compared
      exit bad
    }' "$1" "$2"
}

# A failing bench must fail the whole invocation loudly and must NOT leave
# a BENCH_*.json behind: a committed file with ok=false (or a half-written
# one) looks like a recorded run and silently poisons later comparisons.
# Each bench writes to a temp file that is only moved into place on success.
# (if-form, not `[ -n ] &&`: a short-circuit ending the EXIT trap with a
# false test makes the whole script exit 1 even when every bench passed)
tmp_file=
cleanup() { if [ -n "$tmp_file" ]; then rm -f "$tmp_file"; fi; }
trap cleanup EXIT INT TERM

status=0
failed=
for bin in "$@"; do
  [ -x "$bin" ] || continue
  name=$(basename "$bin")
  out_file="$out_dir/BENCH_${name#bench_}.json"
  echo "== $name -> $out_file"
  start=$(date +%s)
  if output=$("$bin" 2>&1); then
    ok=true
  else
    bench_status=$?
    ok=false
    status=1
    failed="$failed $name"
    echo "error: $name exited with status $bench_status; $out_file NOT written" >&2
    printf '%s\n' "$output" | sed 's/^/  | /' >&2
  fi
  elapsed=$(( $(date +%s) - start ))
  if [ "$ok" = true ] && [ $check_regression -eq 1 ] && [ -f "$out_file" ]; then
    old_keys="$out_dir/.bench_old_keys.$$"
    new_keys="$out_dir/.bench_new_keys.$$"
    json_unescape_stdout "$out_file" | extract_ms_keys > "$old_keys"
    printf '%s\n' "$output" | extract_ms_keys > "$new_keys"
    if ! report_regressions "$old_keys" "$new_keys"; then
      status=1
      failed="$failed $name(regression)"
      echo "error: $name regressed >25% or lost rows vs committed $out_file" >&2
    fi
    rm -f "$old_keys" "$new_keys"
  fi
  if [ "$ok" = true ]; then
    tmp_file="$out_file.tmp.$$"
    {
      printf '{\n'
      printf '  "bench": "%s",\n' "$name"
      printf '  "recorded_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
      printf '  "elapsed_seconds": %s,\n' "$elapsed"
      printf '  "kernel_dispatch": "%s",\n' "$kernel_dispatch"
      printf '  "git_commit": "%s",\n' "$git_commit"
      printf '  "cpu_cores": %s,\n' "$cpu_cores"
      printf '  "ok": %s,\n' "$ok"
      printf '  "stdout": "%s"\n' "$(printf '%s' "$output" | json_escape)"
      printf '}\n'
    } > "$tmp_file"
    mv "$tmp_file" "$out_file"
    tmp_file=
  fi
done

if [ $status -ne 0 ]; then
  echo "error: bench run failed:$failed (crashed benches leave no JSON;" \
       "regressed benches are recorded but fail the run)" >&2
fi
exit $status
