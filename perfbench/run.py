#!/usr/bin/env python3
"""Build the LANNS benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run compiles the repository's
Scala sources together with the benchmark (an sbt build of its own in this
directory) and caches the resulting classpath under perfbench/.work; later
runs start the JVM directly. The last line of standard output is the result
object; the full run report is written to perfbench/.work/.
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
WORK = os.path.join(HERE, ".work")
CLASSPATH = os.path.join(WORK, "classpath.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "3g"
# Everything that goes into the build: the system under test and the benchmark.
SOURCES = ["build.sbt", "project/build.properties", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_sha():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_bounded(cmd, cwd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{cmd[0]} exceeded {timeout} s", 5)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def classpath(sha):
    """The cached runtime classpath, rebuilt with sbt when sources changed."""
    if os.path.exists(CLASSPATH):
        with open(CLASSPATH) as f:
            cached_sha, cp = f.read().split("\n", 1)
        if cached_sha == sha and all(os.path.exists(p) for p in cp.strip().split(os.pathsep)):
            return cp.strip()
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
           "export perfbench/Runtime/fullClasspath"]
    code, out = run_bounded(cmd, HERE, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write("\n".join(l for l in lines if l.startswith(("[error]", "[warn]"))) + "\n")
        die(f"build failed (sbt exit {code})", 3)
    cp = lines[-1].strip()
    with open(CLASSPATH, "w") as f:
        f.write(sha + "\n" + cp + "\n")
    return cp


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def on_signal(signum, _frame):
    # Turn SIGTERM into an exception so run_bounded stops the child's group.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    for rel in ("build.sbt", "src/main/scala", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            die(f"{rel} not found under {ROOT}; run from a full checkout", 2)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)

    sha = source_sha()
    cp = classpath(sha)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
           "-XX:+UseParallelGC",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work-dir", WORK,
           "--git-sha", git_sha() or "none", "--source-sha", sha]
    code, out = run_bounded(cmd, ROOT, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write(out)
        die(f"run failed (exit {code})", code or 1)
    result = json.loads(lines[-1])
    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die(f"metrics differ from BENCHMARK.json: printed {sorted(got.items())}, "
            f"declared {sorted(want.items())}", 4)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
