#!/usr/bin/env python3
"""P-Tucker fit benchmark: one workload per call.

    python3 perfbench/run.py --workload planted-n3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload planted-n3 --seed 1 --seconds 25 --trace 0 --out runs.jsonl

Run from the root of a checkout. The first call builds the benchmark (the
library sources under src/main/scala plus perfbench/src) with sbt into
.bench_build/; later calls reuse that build until a source file changes.
The benchmark's report goes to standard output, and its last line is the
JSON result. The exit code is the benchmark's: 0 when every fit passed its
checks, non-zero otherwise. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIBRARY = os.path.join(ROOT, "src", "main")

# spark-submit adds these JDK 17 module opens itself; a plain `java` launch
# must add them or Kryo and Arrow fail with InaccessibleObjectException.
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def source_files():
    """Every file the build reads, relative to the checkout root."""
    roots = [LIBRARY, os.path.join(HERE, "src"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, subdirs, names in os.walk(r):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", "project"))
            files += [os.path.join(d, n) for n in sorted(names)]
    return sorted(os.path.relpath(f, ROOT) for f in files)


def source_digest():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()


def build():
    """Builds with sbt when the sources changed; returns the runtime classpath."""
    stamp = os.path.join(BUILD, "classpath.json")
    digest = source_digest()
    if os.path.exists(stamp):
        with open(stamp) as f:
            cached = json.load(f)
        if cached.get("digest") == digest:
            return cached["classpath"]
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    # sbt keeps its per-user state (global base) in the build directory, so
    # the build writes inside the checkout; the offline caches are only read.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
           "-Djava.io.tmpdir=" + os.path.join(BUILD, "tmp"),
           "export Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=840)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout)
        raise SystemExit("perfbench: build failed")
    classpath = lines[-1].strip()
    with open(stamp, "w") as f:
        json.dump({"digest": digest, "classpath": classpath}, f)
    return classpath


def run_benchmark(classpath, argv):
    """Runs the benchmark JVM, relaying its output; returns (exit code, last line)."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # A fixed heap and the throughput collector keep fit times steadier from
    # one JVM to the next than the default collector's adaptive sizing.
    cmd = (["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC"]
           + ["--add-opens=%s=ALL-UNNAMED" % p for p in MODULE_OPENS]
           + ["-Djava.io.tmpdir=" + tmp,
              "-Dspark.local.dir=" + os.path.join(BUILD, "spark-local"),
              "-Dspark.sql.warehouse.dir=" + os.path.join(BUILD, "spark-warehouse"),
              "-cp", classpath, "perfbench.Main"] + argv)
    proc = subprocess.Popen(cmd, cwd=BUILD, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        return proc.wait(), last
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--out", help="append {workload, seed, trace, result} as a JSON line to this file")
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the benchmark's own test")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the second fit's model, so that a check must reject it")
    a = p.parse_args()
    # On SIGTERM, unwind so that the build or benchmark child is killed and
    # waited for instead of being left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(LIBRARY, "scala")):
        raise SystemExit("perfbench: no library sources at src/main/scala; run from a full checkout")

    argv = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace]
    argv += ["--toy"] if a.toy else []
    argv += ["--inject-fault"] if a.inject_fault else []
    code, last = run_benchmark(build(), argv)
    if a.out and last.startswith("{"):
        record = {"workload": a.workload, "seed": a.seed, "trace": int(a.trace),
                  "result": json.loads(last)}
        with open(a.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
