#!/usr/bin/env bash
# Everything the benchmark must pass before a change to it lands: offline
# build, formatting, clippy with warnings denied, the harness tests, and a
# two-second smoke of every workload (untraced and traced) whose last output
# line is validated against BENCHMARK.json.
#
# Run from anywhere: benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo build --release --offline --manifest-path "$manifest"
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"

validate='
import json, sys
spec = json.load(open("BENCHMARK.json"))
workload, trace = sys.argv[1], sys.argv[2]
line = sys.stdin.read().strip().split("\n")[-1]
result = json.loads(line)
assert list(result) == ["correct", "attempted", "failed", "metrics"], list(result)
assert result["correct"] is True and result["failed"] == 0, line
assert isinstance(result["attempted"], int) and result["attempted"] >= 1
declared = spec["per_layer" if trace == "1" else "end_to_end"]
assert list(result["metrics"]) == [m["name"] for m in declared], "metric names differ"
for metric in declared:
    got = result["metrics"][metric["name"]]
    assert list(got) == ["value", "unit"] and got["unit"] == metric["unit"], metric["name"]
    assert isinstance(got["value"], (int, float)), metric["name"]
    if trace == "0":
        assert got["value"] > 0, metric["name"] + " must never read 0"
print("ok", workload, "trace", trace, "attempted", result["attempted"])
'
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            run --workload "$workload" --seed 7 --seconds 2 --trace "$trace" 2>/dev/null |
            python3 -c "$validate" "$workload" "$trace"
    done
done

# Nothing may be left behind: no worker process, no scratch directory.
if pgrep -f 'agreement-benchmark --worker' >/dev/null; then
    echo "worker processes left running" >&2
    exit 1
fi
if compgen -G 'benchmark/out/tmp-*' >/dev/null; then
    echo "scratch directories left in benchmark/out" >&2
    exit 1
fi
echo "benchmark/check.sh: all good"
