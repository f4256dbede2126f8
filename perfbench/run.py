#!/usr/bin/env python3
"""Run one workload of the OREO benchmark.

    python3 perfbench/run.py --workload tpch-fig3 --seed 1 --seconds 5 --trace 0

Run from the repository root. The first run builds the program and the
benchmark from source with sbt (offline) into the checkout; later runs reuse
that build while the sources, with their sizes and mtimes, are those it was
built from. Each run starts a fresh JVM from the
compiled classpath with a fixed heap, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when the run completed and printed that line.
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
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSPATH_FILE = os.path.join(WORK, "classpath.txt")
SOURCES_FILE = os.path.join(WORK, "sources.txt")
MAIN = "repro.perfbench.Main"
HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# What the Spark launcher passes to the driver JVM on Java 17.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def log(msg):
    print("[perfbench] %s" % msg, file=sys.stderr, flush=True)


def sources():
    """Every file whose change, addition or removal requires a rebuild."""
    roots = [os.path.join(ROOT, d) for d in ("src/main", "jobs", "project")] + \
            [os.path.join(HERE, d) for d in ("src", "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for r in roots:
        for dirpath, dirnames, names in os.walk(r):
            dirnames[:] = [d for d in dirnames if d != "target"]
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith((".scala", ".sbt", ".properties"))]
    return sorted(files)


def fingerprint():
    """One line per source: its path, size and mtime."""
    lines = []
    for f in sources():
        st = os.stat(f)
        lines.append("%s %d %d" % (os.path.relpath(f, ROOT), st.st_size, st.st_mtime_ns))
    return "\n".join(lines) + "\n"


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build():
    """Compile with sbt unless the sources are those of the last build; return
    the runtime classpath."""
    for needed in (os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "src", "main", "scala")):
        if not os.path.exists(needed):
            raise SystemExit("perfbench: %s not found; run from a checkout of the "
                             "program" % os.path.relpath(needed, ROOT))
    current = fingerprint()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(SOURCES_FILE):
        with open(SOURCES_FILE) as f:
            if f.read() == current:
                with open(CLASSPATH_FILE) as f:
                    return f.read().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        raise SystemExit("perfbench: sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += " -Dsbt.override.build.repos=true -Dsbt.repository.config=" + repos
    env["SBT_OPTS"] = opts.strip()
    log("building with sbt")
    t0 = time.time()
    code, out = run_group([sbt, "--batch", "-Dsbt.log.noformat=true",
                           "export Runtime/fullClasspath", "compile"],
                          BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True)
    if code != 0:
        sys.stderr.write(out)
        raise SystemExit("perfbench: build failed")
    lines = [l for l in out.splitlines() if l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out)
        raise SystemExit("perfbench: sbt printed no classpath")
    classpath = lines[-1].strip()
    os.makedirs(WORK, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(classpath + "\n")
    with open(SOURCES_FILE, "w") as f:
        f.write(current)
    log("built in %.1f s" % (time.time() - t0))
    return classpath


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    classpath = build()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else shutil.which("java")
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java, "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:-UsePerfData",
           "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
           # fewer JIT and GC threads leave the cores to the measured threads
           "-XX:CICompilerCount=2", "-XX:ParallelGCThreads=2", "-XX:ConcGCThreads=1",
           "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           ] + JAVA_MODULE_OPTIONS + [
           "-cp", classpath, MAIN,
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work-dir", run_dir,
           "--trace-file", os.path.join(WORK, "trace-%s-%d.json" % (a.workload, a.seed))]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        raise SystemExit("perfbench: the run failed (exit code %d)" % code)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
