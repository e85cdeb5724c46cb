#!/usr/bin/env python3
"""Connected-components benchmark: one workload, one seed, one JVM.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rmat-rc --seed 1 --seconds 10 --trace 0

The first run builds the program and the benchmark from source with sbt
(perfbench/build.sbt); later runs reuse the classes until a source changes.
The JVM runs perfbench.Main (perfbench/src/main/scala/perfbench/Main.scala),
which prints one `PERFBENCH {...}` line holding every metric with its unit
and sample count, the per-run timings, the partition-check self-test and
the input sizes. This script writes that record to perfbench/out/, prints
it, and then prints the last line: correct, attempted, failed and the
metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1). perfbench/WORKLOADS.md describes the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala", "repro")
BENCH_SRC = os.path.join(HERE, "src")
CLASSES = os.path.join(HERE, "target", "scala-2.13", "classes")
STAMP = os.path.join(HERE, "target", "perfbench.stamp")
WORK = os.path.join(HERE, ".work")

# The Spark driver JVM's pinned settings. The heap is fixed so runs compare; the
# module flags are Spark's own (org.apache.spark.launcher.JavaModuleOptions),
# without which a checkpoint block evicted to disk fails inside Kryo.
HEAP = ["-Xms3g", "-Xmx3g"]
MODULE_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "--enable-native-access=ALL-UNNAMED",
]
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spark_home():
    """SPARK_HOME, else the installation of a spark-submit on PATH; the first
    of these that has a jars directory."""
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        if os.path.isfile(submit):
            homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    for home in homes:
        if home and os.path.isdir(os.path.join(home, "jars")):
            return home
    fail("no Spark installation with a jars directory found; set SPARK_HOME")


def newest_source_mtime():
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM_SRC, BENCH_SRC):
        files += [os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs]
    return max(os.path.getmtime(f) for f in files)


def run_child(cmd, cwd, timeout, **kwargs):
    """Runs cmd and returns (exit code, stdout). On timeout, on SIGTERM (see
    main) or on any other exit from here, the child is killed and waited for."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    if not os.path.isdir(PROGRAM_SRC):
        fail(f"no program sources at {os.path.relpath(PROGRAM_SRC, ROOT)}; run from the root of a checkout")
    newest = newest_source_mtime()
    if os.path.exists(STAMP) and os.path.getmtime(STAMP) >= newest:
        return
    # Resolve from the local caches only, through the user's sbt repositories
    # file when SBT_OPTS does not already say how.
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true "
                           f"-Dsbt.repository.config={repos} -Dsbt.offline=true")
    code, out = run_child(["sbt", "--batch", "-Dsbt.server.autostart=false", "compile"],
                          HERE, BUILD_TIMEOUT_S, env=env, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("build failed")
    with open(STAMP, "w") as f:
        f.write(f"{newest}\n")


def run_jvm(args):
    # Spark scratch space; a JVM that was killed leaves its files behind.
    tmp = os.path.join(WORK, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", *HEAP, *MODULE_FLAGS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-cp", os.pathsep.join([CLASSES, os.path.join(spark_home(), "jars", "*")]),
           "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_child(cmd, ROOT, JVM_TIMEOUT_S)
    if code != 0:
        fail(f"benchmark JVM exited with {code}")
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH ")]
    if not lines:
        fail("benchmark JVM printed no result")
    return json.loads(lines[-1][len("PERFBENCH "):])


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    result = run_jvm(args)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} missing from the result")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
