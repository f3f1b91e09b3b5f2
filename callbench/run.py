#!/usr/bin/env python3
"""Build and run the ORB call benchmark from the root of a source tree.

    python3 callbench/run.py --workload echo-tcp --seed 1 --seconds 20 --trace 0
    python3 callbench/run.py --self-test

The first form builds callbench/main.exe with dune and runs one workload;
the last line of standard output is the run's JSON result. Results and
span dumps are written under .callbench-out/. The second form runs every
workload briefly and checks the benchmark itself (see README.md).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = os.path.basename(HERE)
OUT = ".callbench-out"
# Every workload main.exe knows; BENCHMARK.json lists the ones it gates.
WORKLOADS = ("echo-tcp", "bulk-hcx-tcp", "deadline-mem")
DEADLINE_S = 175  # a run must end within 180 s, build included


def fail(msg):
    print(f"callbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", f"./{NAME}/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed (run from the root of the source tree)")
    return os.path.join("_build", "default", NAME, "main.exe")


def revision():
    """The git commit when this tree is a git checkout, else a digest of
    the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", NAME):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run(exe, workload, seed, seconds, trace, started, echo=True):
    """Run one workload; returns (exit code, stdout lines)."""
    env = {k: v for k, v in os.environ.items() if k != "ORB_LOCK_CHECK"}
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT, "--commit", revision()]
    budget = max(30, DEADLINE_S - (time.monotonic() - started))
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            fail(f"{workload} did not finish within {budget:.0f} s")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return p.returncode, out.splitlines()


# ---------------- self-test ----------------

def close(a, b, tol=1e-6):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_metrics(kind, result, lines, spec, errors):
    """Every metric of BENCHMARK.json printed, with its unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{kind}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        errors.append(f"{kind}: correct={result.get('correct')} failed={result.get('failed')}")
    got = result.get("metrics", {})
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name not in got:
            errors.append(f"{kind}: {name} missing from the result")
        elif got[name]["unit"] != unit:
            errors.append(f"{kind}: {name} unit {got[name]['unit']} != {unit}")
        elif not any(l.split()[:1] == [name] and l.split()[-1] == unit for l in lines):
            errors.append(f"{kind}: {name} not printed with its unit")
    extra = set(got) - {m["name"] for m in spec}
    if extra:
        errors.append(f"{kind}: metrics not in BENCHMARK.json: {sorted(extra)}")


# The parent of each span of one traced call. Siblings run one after
# another, so a parent's self time is its duration minus its children's.
TREE = {
    "client": "call",
    "client_decode": "call",
    "client_encode": "client",
    "server": "client",
    "server_decode": "server",
    "servant": "server",
    "server_encode": "server",
}
EPS = 2e-6  # float resolution of epoch seconds, with margin


def check_spans(kind, path, metrics, errors):
    """Nesting, non-negative self time, and rows that add up to the call."""
    with open(path) as fh:
        calls = [json.loads(l) for l in fh]
    if not calls:
        errors.append(f"{kind}: no traced calls in {path}")
        return
    bad = 0
    for c in calls:
        children = {}
        for span, parent in TREE.items():
            s0, s1 = c[span]
            p0, p1 = c[parent]
            if s1 < s0 - EPS or s0 < p0 - EPS or s1 > p1 + EPS:
                bad += 1
            children.setdefault(parent, []).append(s1 - s0)
        for parent, durs in children.items():
            p0, p1 = c[parent]
            if (p1 - p0) - sum(durs) < -EPS * (1 + len(durs)):
                bad += 1
        if c["obs_server"]["parent_id"] != c["obs_client"]["span_id"] or \
                c["obs_server"]["trace_id"] != c["trace_id"]:
            bad += 1
    if bad:
        errors.append(f"{kind}: {bad} span nesting or self-time violations")

    def mean_us(f):
        return sum(f(c) for c in calls) / len(calls) * 1e6

    def dur(name):
        return lambda c: c[name][1] - c[name][0]

    server = mean_us(dur("server"))
    rows = {
        "call.mean_us": mean_us(dur("call")),
        "wire.client_encode_us": mean_us(dur("client_encode")),
        "orb.client.send_us": mean_us(lambda c: c["send_s"]),
        "orb.client.wait_us": mean_us(lambda c: c["wait_s"]),
        "wire.server_decode_us": mean_us(dur("server_decode")),
        "servant.body_us": mean_us(dur("servant")),
        "wire.server_encode_us": mean_us(dur("server_encode")),
        "wire.client_decode_us": mean_us(dur("client_decode")),
    }
    rows["orb.hop_us"] = rows["orb.client.wait_us"] - server
    rows["orb.server.self_us"] = server - rows["wire.server_decode_us"] \
        - rows["servant.body_us"] - rows["wire.server_encode_us"]
    for name, v in rows.items():
        if not close(metrics[name]["value"], v, 1e-4):
            errors.append(f"{kind}: {name} printed {metrics[name]['value']} "
                          f"but the span dump gives {v}")
    additive = ["wire.client_encode_us", "orb.client.send_us", "orb.hop_us",
                "orb.server.self_us", "wire.server_decode_us", "servant.body_us",
                "wire.server_encode_us", "wire.client_decode_us", "call.residual_us"]
    total = sum(metrics[n]["value"] for n in additive)
    if not close(total, metrics["call.mean_us"]["value"], 1e-6):
        errors.append(f"{kind}: layer rows + residual = {total}, "
                      f"mean call = {metrics['call.mean_us']['value']}")
    if metrics["trace.joined_calls"]["value"] != len(calls):
        errors.append(f"{kind}: {len(calls)} calls in the span dump, "
                      f"{metrics['trace.joined_calls']['value']} reported")


def self_test(exe, started):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    errors = []
    for name in WORKLOADS:
        # Long enough for >= 10 latency samples beyond p99 at bulk's
        # ~80 calls/s.
        for trace, seconds, spec in ((0, 20, bench["end_to_end"]),
                                     (1, 4, bench["per_layer"])):
            kind = f"{name} --trace {trace}"
            code, lines = run(exe, name, 1, seconds, trace, time.monotonic(), echo=False)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                errors.append(f"{kind}: no JSON result (exit {code})")
                continue
            check_metrics(kind, result, lines, spec, errors)
            if trace == 1:
                check_spans(kind, os.path.join(OUT, f"{name}-spans.jsonl"),
                            result["metrics"], errors)
            print(f"self-test: {kind}: {'ok' if not errors else 'errors so far'}")
    for e in errors:
        print("self-test FAILED:", e)
    print(f"self-test: {'FAILED' if errors else 'passed'} "
          f"in {time.monotonic() - started:.0f} s")
    return 1 if errors else 0


def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    exe = build()
    os.makedirs(OUT, exist_ok=True)
    if a.self_test:
        return self_test(exe, started)
    code, _ = run(exe, a.workload, a.seed, a.seconds, a.trace, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
