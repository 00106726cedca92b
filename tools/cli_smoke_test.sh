#!/bin/sh
# End-to-end smoke test of the guardrail CLI. Usage: cli_smoke_test.sh <binary>
set -e
BIN="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

cat > "$DIR/data.csv" <<CSV
zip,city,note
94704,Berkeley,a
94704,Berkeley,b
94607,Oakland,a
94607,Oakland,c
10001,NewYork,b
94704,Berkeley,c
94607,Oakland,b
10001,NewYork,a
94704,Berkeley,a
10001,NewYork,c
94704,Berkeley,b
94607,Oakland,a
10001,NewYork,b
94704,Berkeley,c
94607,Oakland,b
10001,NewYork,a
CSV

"$BIN" synthesize "$DIR/data.csv" "$DIR/prog.grl" 0.01 > "$DIR/synth.log"
grep -q "GIVEN zip ON city" "$DIR/prog.grl"

# Clean data: no violations, exit 0.
"$BIN" check "$DIR/prog.grl" "$DIR/data.csv" > "$DIR/clean.log"
grep -q "0 violation" "$DIR/clean.log"

# Corrupt a cell: check exits 3, repair restores it.
sed 's/94704,Berkeley,a/94704,gibbon,a/' "$DIR/data.csv" > "$DIR/dirty.csv"
if "$BIN" check "$DIR/prog.grl" "$DIR/dirty.csv" > "$DIR/dirty.log"; then
  echo "expected nonzero exit for violations" >&2
  exit 1
fi
grep -q "gibbon" "$DIR/dirty.log"
"$BIN" repair "$DIR/prog.grl" "$DIR/dirty.csv" "$DIR/fixed.csv" > /dev/null
"$BIN" check "$DIR/prog.grl" "$DIR/fixed.csv" | grep -q "0 violation"
! grep -q gibbon "$DIR/fixed.csv"

# Static analysis (docs/ANALYSIS.md): a clean program yields no diagnostics
# and exit 0, in both text and JSON form.
"$BIN" analyze "$DIR/prog.grl" "$DIR/data.csv" > "$DIR/analyze.log"
grep -q "no diagnostics" "$DIR/analyze.log"
"$BIN" analyze "$DIR/prog.grl" "$DIR/data.csv" --json > "$DIR/analyze.json"
python3 -m json.tool "$DIR/analyze.json" > /dev/null
grep -q '"counts": {"error": 0, "warning": 0, "info": 0}' "$DIR/analyze.json"

# A corrupted program draws error-severity diagnostics: exit 4 plus valid
# machine-readable JSON naming the code.
sed "s/city <- 'Berkeley'/city <- 'Oakland'/" "$DIR/prog.grl" > "$DIR/bad.grl"
rc=0
"$BIN" analyze "$DIR/bad.grl" "$DIR/data.csv" --json > "$DIR/bad.json" || rc=$?
if [ "$rc" -ne 4 ]; then
  echo "expected exit 4 for error diagnostics, got $rc" >&2
  exit 1
fi
python3 -m json.tool "$DIR/bad.json" > /dev/null
grep -q '"code": "GRL404"' "$DIR/bad.json"
grep -q '"severity": "error"' "$DIR/bad.json"

# Pinned analyze exit-code semantics (docs/ANALYSIS.md): warning-severity
# diagnostics on an otherwise-clean program exit 0 — warnings advise, they
# must not fail pipelines — while I/O failures exit 2 and bad flags exit 1.
# A duplicated statement draws the GRL601/GRL602 implication warnings.
{ echo "# guardrail-program v1"; grep -v '^#' "$DIR/prog.grl"; \
  grep -v '^#' "$DIR/prog.grl"; } > "$DIR/dup.grl"
"$BIN" analyze "$DIR/dup.grl" "$DIR/data.csv" > "$DIR/dup.log"
grep -q "GRL601" "$DIR/dup.log"
grep -q "GRL602" "$DIR/dup.log"
grep -q "2 warning(s)" "$DIR/dup.log"
rc=0
"$BIN" analyze "$DIR/missing.grl" "$DIR/data.csv" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 for missing program file, got $rc" >&2
  exit 1
fi
rc=0
"$BIN" analyze "$DIR/prog.grl" "$DIR/data.csv" --scheme=bogus \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for bad flag, got $rc" >&2
  exit 1
fi

# Certified minimization: --minimize drops the duplicate, emits the
# equivalence certificate, and marks the minimized artifact.
"$BIN" analyze "$DIR/dup.grl" "$DIR/data.csv" --minimize \
  --certificate="$DIR/cert.json" --minimized-out="$DIR/min.grl" \
  > "$DIR/minimize.log"
grep -q "minimized: 2 -> 1 statement(s)" "$DIR/minimize.log"
python3 -m json.tool "$DIR/cert.json" > /dev/null
grep -q '"format": "guardrail-minimization-certificate-v2"' "$DIR/cert.json"
grep -q '^# guardrail-minimized$' "$DIR/min.grl"
# The minimized program is verdict-identical on the dirty batch.
rc=0
"$BIN" check "$DIR/min.grl" "$DIR/dirty.csv" > "$DIR/min_check.log" || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "expected exit 3 for violations under minimized program, got $rc" >&2
  exit 1
fi
grep -q "gibbon" "$DIR/min_check.log"

# Deadline-aware synthesis: a generous budget on this tiny input stays on
# the top rung (same program), and a zero budget still exits cleanly with a
# trivial-rung artifact instead of hanging or crashing.
"$BIN" synthesize "$DIR/data.csv" "$DIR/prog_budget.grl" 0.01 \
  --time-budget-ms=10000 > "$DIR/synth_budget.log"
# Comment lines embed the source path; the constraints themselves must match.
grep -v '^#' "$DIR/prog.grl" > "$DIR/a.grl"
grep -v '^#' "$DIR/prog_budget.grl" > "$DIR/b.grl"
cmp "$DIR/a.grl" "$DIR/b.grl"
"$BIN" synthesize "$DIR/data.csv" "$DIR/prog_zero.grl" 0.01 \
  --time-budget-ms=0 > "$DIR/synth_zero.log"
grep -q "degraded to rung" "$DIR/synth_zero.log"

# Profile, query, explain all run.
"$BIN" profile "$DIR/data.csv" | grep -q "card=3"
"$BIN" query "$DIR/data.csv" "SELECT city, COUNT(*) AS n FROM t GROUP BY city ORDER BY n DESC, city LIMIT 1" | grep -q "Berkeley | 6"
"$BIN" explain "SELECT a FROM t WHERE ML_PREDICT('m')='x' AND a='y'" | grep -q "Filter\[pre-inference\]"

# Telemetry export: --trace-out / --metrics-out produce valid JSON
# (docs/OBSERVABILITY.md) and the trace contains the nested pipeline spans.
"$BIN" synthesize "$DIR/data.csv" "$DIR/prog_tel.grl" 0.01 \
  --trace-out="$DIR/trace.json" --metrics-out="$DIR/metrics.json" \
  --log-level=warn > "$DIR/synth_tel.log"
python3 -m json.tool "$DIR/trace.json" > /dev/null
python3 -m json.tool "$DIR/metrics.json" > /dev/null
grep -q '"name": "synthesize"' "$DIR/trace.json"
grep -q '"name": "pc"' "$DIR/trace.json"
grep -q '"name": "sketch_fill"' "$DIR/trace.json"
# PC must have run real CI tests on this input; the cache counters must at
# least be present (hits can legitimately be zero on a tiny MEC).
grep -q '"pc.ci_tests_total": [1-9]' "$DIR/metrics.json"
grep -q '"sketch_filler.cache_misses"' "$DIR/metrics.json"
grep -q '"sketch_filler.cache_hits"' "$DIR/metrics.json"
# A query run exports sql.rows_scanned.
"$BIN" query "$DIR/data.csv" "SELECT COUNT(*) AS n FROM t" \
  --metrics-out="$DIR/qmetrics.json" > /dev/null
python3 -m json.tool "$DIR/qmetrics.json" > /dev/null
grep -q '"sql.rows_scanned": 16' "$DIR/qmetrics.json"
# An unknown log level is a usage error.
if "$BIN" profile "$DIR/data.csv" --log-level=shouty > /dev/null 2>&1; then
  echo "expected usage failure for bad log level" >&2
  exit 1
fi

# Local stream replay (docs/STREAMING.md): three batches run the daemon's
# ingest step in-process. 16 rows never reach the bootstrap floor, so the
# last batch bootstraps; the final program loads and vets like any other.
"$BIN" stream "$DIR/data.csv" --batch-rows=6 --out="$DIR/stream.grl" \
  > "$DIR/stream.log"
grep -q "^batch 2 (16 rows in): full |" "$DIR/stream.log"
grep -q "reason: bootstrap" "$DIR/stream.log"
"$BIN" check "$DIR/stream.grl" "$DIR/data.csv" | grep -q "0 violation"
if "$BIN" check "$DIR/stream.grl" "$DIR/dirty.csv" > "$DIR/stream_dirty.log"; then
  echo "expected nonzero exit for violations under the streamed program" >&2
  exit 1
fi
grep -q "gibbon" "$DIR/stream_dirty.log"

# Serving round trip (docs/SERVING.md): serve a program directory, validate
# clean and dirty batches over TCP, then drain on SIGTERM.
mkdir "$DIR/programs"
cp "$DIR/prog.grl" "$DIR/programs/demo.grl"
cp "$DIR/data.csv" "$DIR/programs/demo.csv"
# Create the log before the daemon does: the poll below may run before the
# background shell opens it, and a failing sed would trip `set -e`.
: > "$DIR/serve.log"
"$BIN" serve --programs="$DIR/programs" --port=0 > "$DIR/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT=$(sed -n 's/^listening on 127.0.0.1:\([0-9]*\)$/\1/p' "$DIR/serve.log")
  [ -n "$PORT" ] && break
  i=$((i + 1))
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "serve never reported its port" >&2
  cat "$DIR/serve.log" >&2
  exit 1
fi
grep -q "1 dataset(s) loaded" "$DIR/serve.log"

# Clean rows validate with zero flagged (exit 0).
"$BIN" validate "127.0.0.1:$PORT" demo "$DIR/data.csv" \
  > "$DIR/validate_clean.log"
grep -q "0 of 16 row(s) flagged" "$DIR/validate_clean.log"

# Dirty rows are flagged (exit 3) and rectify names the repair.
if "$BIN" validate "127.0.0.1:$PORT" demo "$DIR/dirty.csv" \
    --scheme=rectify > "$DIR/validate_dirty.log"; then
  echo "expected nonzero exit for flagged rows" >&2
  exit 1
fi
grep -q "repaired to: 94704,Berkeley" "$DIR/validate_dirty.log"
# JSON rows produce identical verdict counts.
if "$BIN" validate "127.0.0.1:$PORT" demo "$DIR/dirty.csv" \
    --format=json > "$DIR/validate_json.log"; then
  echo "expected nonzero exit for flagged rows (json)" >&2
  exit 1
fi
grep -q "2 of 16 row(s) flagged" "$DIR/validate_json.log"
grep -q "2 of 16 row(s) flagged" "$DIR/validate_dirty.log"

# Fleet mode: the same daemon listed twice behind the replica pool, with
# retries and hedging enabled, reports identical verdicts.
"$BIN" validate --endpoints="127.0.0.1:$PORT,127.0.0.1:$PORT" demo \
  "$DIR/data.csv" --retries=3 > "$DIR/validate_fleet.log"
grep -q "0 of 16 row(s) flagged" "$DIR/validate_fleet.log"
if "$BIN" validate --endpoints="127.0.0.1:$PORT,127.0.0.1:$PORT" demo \
    "$DIR/dirty.csv" --scheme=rectify --retries=3 --hedge-ms=50 \
    > "$DIR/validate_fleet_dirty.log"; then
  echo "expected nonzero exit for flagged rows (fleet)" >&2
  exit 1
fi
grep -q "repaired to: 94704,Berkeley" "$DIR/validate_fleet_dirty.log"

# SIGTERM drains cleanly: exit 0 and a drain marker in the log.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "serve did not exit cleanly on SIGTERM" >&2
  cat "$DIR/serve.log" >&2
  exit 1
fi
grep -q "drained" "$DIR/serve.log"

# Certified publish gate (docs/ANALYSIS.md): a minimized program without its
# certificate is refused at load; dropping the companion cert into the
# directory hot-reloads and publishes it.
mkdir "$DIR/programs_min"
cp "$DIR/min.grl" "$DIR/programs_min/mini.grl"
cp "$DIR/data.csv" "$DIR/programs_min/mini.csv"
: > "$DIR/serve_min.log"
"$BIN" serve --programs="$DIR/programs_min" --port=0 --reload-ms=100 \
  > "$DIR/serve_min.log" 2>&1 &
SERVE_PID=$!
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT=$(sed -n 's/^listening on 127.0.0.1:\([0-9]*\)$/\1/p' \
    "$DIR/serve_min.log")
  [ -n "$PORT" ] && break
  i=$((i + 1))
  sleep 0.1
done
[ -n "$PORT" ]
grep -q "0 dataset(s) loaded" "$DIR/serve_min.log"
grep -q "refusing to publish an unproven minimization" "$DIR/serve_min.log"
cp "$DIR/cert.json" "$DIR/programs_min/mini.cert.json"
i=0
while [ $i -lt 100 ]; do
  if "$BIN" validate "127.0.0.1:$PORT" mini "$DIR/data.csv" \
      > "$DIR/validate_min.log" 2>&1; then
    break
  fi
  i=$((i + 1))
  sleep 0.1
done
grep -q "0 of 16 row(s) flagged" "$DIR/validate_min.log"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

echo "cli smoke OK"
