#!/usr/bin/env python3
"""Build file of the benchmark: compiles the library and the harness.

Compiles the library (`src/main/scala`) together with the benchmark's
harness (`vcbench/src`) with the Scala compiler shipped in Spark's `jars`
directory, into `<work>/classes`. A digest of every source file and of the
jar list is stored beside the classes; a later call with the same digest
reuses them.

Usage, from the repository root:  python3 vcbench/build.py [WORK_DIR]
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


class BuildError(Exception):
    pass


def spark_jars():
    """Spark's jar directory: $SPARK_HOME, else the distribution of a
    `spark-submit` on the PATH. It must hold the Scala compiler."""
    path = os.environ.get("PATH", "").split(os.pathsep)
    homes = [os.environ.get("SPARK_HOME")] + [
        str(Path(d).resolve().parent) for d in path if d and (Path(d) / "spark-submit").is_file()]
    for home in filter(None, homes):
        jars = Path(home) / "jars"
        if any(jars.glob("scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a scala-compiler jar found (set SPARK_HOME)")


def java():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    return "java"


def sources(root):
    lib = root / "src" / "main" / "scala"
    if not lib.is_dir():
        raise BuildError(f"library sources not found at {lib}")
    files = sorted(lib.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def digest(root, files, jars):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    for j in sorted(p.name for p in jars.glob("*.jar")):
        h.update(j.encode())
    return h.hexdigest()


def ensure_built(root, work):
    """Return (classes_dir, source_digest), compiling when sources changed."""
    root, work = Path(root).resolve(), Path(work).resolve()
    jars = spark_jars()
    files = sources(root)
    want = digest(root, files, jars)
    classes = work / "classes"
    stamp = work / "classes.digest"
    if classes.is_dir() and stamp.exists() and stamp.read_text() == want:
        return classes, want
    tmp = work / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", str(jars / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(tmp)]
    cmd += [str(f) for f in files]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(want)
    return classes, want


if __name__ == "__main__":
    work = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".bench_build") / "vcbench"
    try:
        out, d = ensure_built(HERE.parent, work)
    except BuildError as e:
        sys.exit(f"build failed: {e}")
    print(f"built {out} ({d[:12]})")
