#!/usr/bin/env python3
"""The benchmark's command (named in the root BENCHMARK.json).

  run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
      Builds the program and measures one workload once; the last line of
      stdout is the result object. Further flags (--smoke, --reps,
      --scratch) go to the binary unchanged.
  run.py all [--seed <n>] [--only <workload>]... [--out <file.json>] [flags]
      Every workload untraced and traced, as one result file with a host
      block: the four end-to-end and 73 per-layer metrics per workload.
  run.py compare <a.json> <b.json>
      One row per end-to-end metric x workload of two `all` result files,
      judged against the bounds in BENCHMARK.json; exit 1 on any `worse`.

Building. The container has no route to crates.io, so the program is built
against the functional stand-ins in tools/offline-stubs, the way
tools/offline-check.sh type-checks it: the sources are copied to
<target>/benchmark-tree with the external entries of
[workspace.dependencies] pointed at the stubs, and `cargo build --release
--offline -p minoaner-benchmark` runs there. <target> is CARGO_TARGET_DIR
or ./target. The build is the same on every host and on both sides of an
A/B; the `host` block of a result file says so (`deps`).
"""

import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
STUBS = ["rand", "rand_distr", "proptest", "criterion", "crossbeam",
         "parking_lot", "bytes", "serde", "serde_json", "loom"]
# What the workspace manifest needs to load (every member, the root
# package's own targets, the stubs), and the contract the benchmark's own
# test reads.
SOURCES = ["Cargo.toml", "crates", "src", "tests", "examples", "tools/offline-stubs",
           "BENCHMARK.json"]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))


def build():
    """Builds the benchmark binary against the offline stubs; returns its path."""
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        sys.exit(f"error: {ROOT} is not a checkout of the repository (no {', '.join(missing)})")
    target = target_dir()
    tree = os.path.join(target, "benchmark-tree")
    shutil.rmtree(tree, ignore_errors=True)
    for source in SOURCES:
        src, dst = os.path.join(ROOT, source), os.path.join(tree, source)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        # copy2 keeps modification times, so cargo sees unchanged sources
        # as unchanged and a second build is a no-op.
        if os.path.isdir(src):
            shutil.copytree(src, dst, copy_function=shutil.copy2,
                            ignore=shutil.ignore_patterns("target", "results"))
        else:
            shutil.copy2(src, dst)

    manifest = os.path.join(tree, "Cargo.toml")
    lines, in_deps = [], False
    for line in open(manifest):
        if line.lstrip().startswith("["):
            in_deps = line.strip() == "[workspace.dependencies]"
        name = re.match(r"([A-Za-z0-9_-]+)\s*=", line)
        if in_deps and name and name.group(1) in STUBS:
            features = ', features = ["derive"]' if name.group(1) == "serde" else ""
            line = f'{name.group(1)} = {{ path = "tools/offline-stubs/{name.group(1)}"{features} }}\n'
        lines.append(line)
    open(manifest, "w").writelines(lines)

    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    cargo = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "minoaner-benchmark"],
        cwd=tree, env=env, stdout=sys.stderr)
    if cargo.returncode != 0:
        sys.exit(f"error: cargo build failed in {tree}")
    return os.path.join(target, "release", "minoaner-benchmark")


def measure(binary, args):
    """Runs the binary once; returns (exit code, result object, samples object)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run([binary] + args, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return proc.returncode or 1, None, None
    samples = next((json.loads(l[len("samples "):]) for l in lines if l.startswith("samples ")), {})
    return proc.returncode, json.loads(lines[-1]), samples


def benchmark_json():
    return json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def host():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
        except OSError:
            return "unknown"
    return {
        "cores": os.cpu_count(),
        "available_parallelism": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "--version"]),
        "profile": "release",
        "deps": "tools/offline-stubs",
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def take(args, flag, default=None, many=False):
    """Removes `flag <value>` from args; returns the value(s)."""
    found = []
    while flag in args:
        i = args.index(flag)
        found.append(args[i + 1])
        del args[i:i + 2]
    return found if many else (found[-1] if found else default)


def run_all(args):
    spec = benchmark_json()
    seed = take(args, "--seed", "0")
    out_path = take(args, "--out")
    only = take(args, "--only", many=True) or [w["name"] for w in spec["workloads"]]
    binary = build()
    result = {"claim": None, "seed": int(seed), "run_seconds": spec["run_seconds"],
              "host": host(), "workloads": {}}
    ok = True
    for workload in only:
        entry = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, res, samples = measure(binary, [
                "--workload", workload, "--seed", seed, "--seconds", str(spec["run_seconds"]),
                "--trace", str(trace)] + args)
            if res is None:
                sys.exit(f"error: {workload} --trace {trace} printed no result (exit {code})")
            ok = ok and code == 0 and res["correct"]
            entry[kind] = res["metrics"]
            entry[f"{kind}_attempted"], entry[f"{kind}_failed"] = res["attempted"], res["failed"]
            if trace == 0:
                entry["workers"] = samples["workers"]
                entry["graph_digest"] = samples["graph_digest"]
                for name in ("setup_s", "e2e_wall_s", "peak_rss_mb"):
                    q1, med, q3 = quartiles(samples[name])
                    entry[kind][name].update(
                        q1=q1, q3=q3, min=min(samples[name]), max=max(samples[name]),
                        n=len(samples[name]))
                    assert abs(med - entry[kind][name]["value"]) <= 1e-9 * abs(med)
        result["workloads"][workload] = entry

    for workload, entry in result["workloads"].items():
        print(f"\n{workload} ({entry['workers']} worker(s), digest {entry['graph_digest']}, "
              f"failed {entry['end_to_end_failed']}/{entry['end_to_end_attempted']} and "
              f"{entry['per_layer_failed']}/{entry['per_layer_attempted']} traced)")
        for kind in ("end_to_end", "per_layer"):
            for name, m in entry[kind].items():
                spread = (f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  min {m['min']:.6g}  "
                          f"max {m['max']:.6g}  n={m['n']}") if "n" in m else ""
                print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}{spread}")
    text = json.dumps(result, indent=1)
    if out_path:
        open(out_path, "w").write(text + "\n")
        print(f"\nwrote {out_path}")
    sys.exit(0 if ok else 1)


def compare(path_a, path_b):
    spec = benchmark_json()
    a, b = (json.load(open(p))["workloads"] for p in (path_a, path_b))
    print(f"delta = (b - a) / a, base a = {path_a}; b = {path_b}")
    print(f"{'workload':<18} {'metric':<12} {'a median [q1, q3]':>34} {'b median [q1, q3]':>34} "
          f"{'delta':>8} {'bound':>6}  verdict")
    worse = False
    for workload in a:
        if workload not in b:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma, mb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            delta = (mb["value"] - ma["value"]) / ma["value"]
            regress = delta if metric["better"] == "lower" else -delta
            spread = max((m.get("q3", m["value"]) - m.get("q1", m["value"])) / m["value"]
                         for m in (ma, mb))
            if regress > bound:
                verdict, worse = "worse", True
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            cell = lambda m: (f"{m['value']:.5g} [{m.get('q1', m['value']):.5g}, "
                              f"{m.get('q3', m['value']):.5g}] {m['unit']}")
            print(f"{workload:<18} {name:<12} {cell(ma):>34} {cell(mb):>34} "
                  f"{delta:>+8.2%} {bound:>6.0%}  {verdict}")
        # Counts and the digest must repeat exactly between runs of one
        # commit and under a pure speed change.
        la, lb = a[workload]["per_layer"], b[workload]["per_layer"]
        moved = [n for n in la if la[n]["unit"] in ("count", "hash48") and n in lb
                 and la[n]["value"] != lb[n]["value"] and not n.startswith("proc.")]
        print(f"{workload:<18} counts and digest: " + ("identical" if not moved else "differ: " + ", ".join(moved)))
    sys.exit(1 if worse else 0)


def main():
    args = sys.argv[1:]
    if args[:1] == ["compare"] and len(args) == 3:
        compare(args[1], args[2])
    if args[:1] == ["all"]:
        run_all(args[1:])
    binary = build()
    sys.stdout.flush()
    os.environ["CARGO_TARGET_DIR"] = target_dir()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
