#!/usr/bin/env python3
"""CLA benchmark: drives the real `cla` binaries over seeded Genc inputs.

Usage (from the root of a checkout):

    python3 clabench/run.py --workload build-1m --seed 1 --seconds 10 --trace 0

Workloads (see clabench/README.md for why each was chosen):

  build-1m    gimp x1.0 (109 units, ~1.05M lines): cold `cla compile -j1`,
              `cla link`; then `cla analyze` and queries against
              `cla serve`, at checkpoints spread over one edit rebuilt
              through the CLI.
  edit-serve  `cla serve --watch` over gimp x0.25: closed-loop one-unit
              edits, each triggered by `reanalyze` and followed by a burst
              of points-to queries and one slot of a cold build of a copy
              of the seeded tree; then a cold build of the final tree.

Both end with one unit linked and analyzed alone as an open-world
fragment, checked against its closed-world solution.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the same run also replays every stage in-process with
clabench/probe.exe, which times each layer's public functions, and the
last line reports the per-layer metrics.  Everything
is built from source here and all files stay under .clabench/.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

CLA = os.path.join("_build", "default", "bin", "cla.exe")
PROBE = os.path.join("_build", "default", "clabench", "probe.exe")
STATE = ".clabench"
QUERIES_MIN = 1000  # p99 with at least ten samples beyond it
QUERIES = 5000  # points-to queries of build-1m
SAMPLE = 64  # variables whose answers are checked
BURST = 400  # points-to queries after each served edit
SETUP_REPEATS = 3
# A traced run replays a stage in-process right after each of its first
# REPLAYS samples, so the sum check compares medians taken side by side.
REPLAYS = 3
# build-1m's analyze samples and query chunks, spread over its run.
CHECKPOINTS = 5
# edit-serve's cold build: per round, one compile sample and two link and
# analyze samples, in three slots; one slot follows each served edit.
ROUNDS = 4


# Traced layer times must add up to the untraced stage time within this
# share; the signed gap is reported as trace.<stage>_gap_pct.
GAP_TOLERANCE = 0.3


def log(msg):
    print(f"clabench: {msg}", file=sys.stderr, flush=True)


class Failed(Exception):
    pass


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


class Session:
    """Counts operations and failures, tracks program peak RSS, and owns
    every process it starts."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.peak_kb = 0
        self.live = []
        self.n = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok

    def _files(self):
        self.n += 1
        base = os.path.join(self.work, f"proc{self.n}")
        return open(base + ".out", "wb+"), open(base + ".err", "wb+")

    def run(self, argv, program=True):
        """Run to completion; returns (wall seconds, stdout text, exit code)."""
        out, err = self._files()
        t0 = time.perf_counter()
        p = self.spawn(argv, program, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        self.live.remove(p)
        p.returncode = code = os.waitstatus_to_exitcode(status)
        if program:
            self.peak_kb = max(self.peak_kb, ru.ru_maxrss)
        out.seek(0)
        err.seek(0)
        text = out.read().decode()
        if code != 0:
            log(f"exit {code}: {' '.join(argv[:4])} ...: "
                f"{err.read().decode()[-400:]}")
        out.close()
        err.close()
        return wall, text, code

    def cla(self, what, argv):
        """A timed `cla` command that must exit 0."""
        wall, text, code = self.run([CLA] + argv)
        if not self.check(code == 0, f"{what}: cla exited {code}"):
            raise Failed(what)
        return wall, text

    def probe(self, argv):
        wall, text, code = self.run([PROBE] + argv, program=False)
        if not self.check(code == 0, f"probe {argv[0]} exited {code}"):
            raise Failed(f"probe {argv[0]}")
        return json.loads(text.strip().splitlines()[-1])

    def spawn(self, argv, program=True, **kw):
        if "stdout" not in kw:
            out, err = self._files()
            kw.update(stdout=out, stderr=err)
        p = subprocess.Popen(argv, **kw)
        p.program = program
        self.live.append(p)
        return p

    def reap(self, p, grace=60.0):
        """Wait for a started process (killing it after [grace] seconds);
        returns its exit code."""
        deadline = time.monotonic() + grace
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                break
            if time.monotonic() > deadline:
                p.kill()
                pid, status, ru = os.wait4(p.pid, 0)
                break
            time.sleep(0.01)
        p.returncode = code = os.waitstatus_to_exitcode(status)
        if p.program:
            self.peak_kb = max(self.peak_kb, ru.ru_maxrss)
        self.live.remove(p)
        return code

    def stop_all(self):
        for p in list(self.live):
            try:
                p.kill()
            except ProcessLookupError:
                pass
            self.reap(p, grace=10.0)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def summary_counts(text):
    """(pointer variables, relations) from `cla analyze`'s summary line."""
    for line in text.splitlines():
        words = line.split()
        if len(words) > 5 and words[2:4] == ["pointer", "variables,"]:
            return int(words[1]), int(words[4])
    return None


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


class Tree:
    """A seeded Genc program materialized by the probe, which then serves
    its Editstream edits one at a time."""

    def __init__(self, s, scale, seed, directory, names=None):
        os.makedirs(directory, exist_ok=True)
        argv = [PROBE, "tree", "--scale", str(scale), "--seed", str(seed),
                "--dir", directory]
        if names:
            argv += ["--names", str(SAMPLE), "--names-out", names]
        self.s = s
        self.dir = directory
        t0 = time.perf_counter()
        self.p = s.spawn(argv, program=False, stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, text=True)
        ready = self.p.stdout.readline().strip()
        self.setup_s = time.perf_counter() - t0
        if not s.check(ready == "ready", "probe tree did not start"):
            raise Failed("tree")

    def sources(self):
        return sorted(glob.glob(os.path.join(self.dir, "*.c")))

    def objects(self):
        return sorted(glob.glob(os.path.join(self.dir, "*.clo")))

    def next_edit(self):
        """Apply one edit on disk; returns (path of the edited file, removal?)."""
        self.p.stdin.write("next\n")
        self.p.stdin.flush()
        name, removal = self.p.stdout.readline().rstrip("\n").split("\t")
        return os.path.join(self.dir, name), removal == "1"

    def close(self):
        self.p.stdin.close()
        self.p.stdout.close()
        self.s.check(self.s.reap(self.p) == 0, "probe tree exit")


# --------------------------------------------------------------------------
# `cla serve`
# --------------------------------------------------------------------------


# The query client and `cla serve` share one CPU: a closed-loop exchange
# then needs no cross-CPU wake-up, whose cost on a shared VM swings 2-3x
# with the neighbours' load.
QUERY_CPU = max(os.sched_getaffinity(0))


class pinned:
    """Run the block with this process on QUERY_CPU only."""

    def __enter__(self):
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {QUERY_CPU})

    def __exit__(self, *_):
        os.sched_setaffinity(0, self.cpus)


class Server:
    def __init__(self, s, args, sock):
        if os.path.exists(sock):
            os.unlink(sock)
        self.s = s
        t0 = time.perf_counter()
        # the default 2 s query deadline is shorter than an open-world
        # solve, which would then be abandoned and retried on every query
        self.p = s.spawn([CLA, "serve", "--socket", sock, "--shards", "1",
                          "--default-deadline-ms", "60000"] + args,
                         preexec_fn=lambda: os.sched_setaffinity(0, {QUERY_CPU}))
        deadline = time.monotonic() + 170
        while True:
            try:
                c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                c.connect(sock)
                break
            except OSError:
                c.close()
                if self.p.poll() is not None or time.monotonic() > deadline:
                    s.check(False, "cla serve did not come up")
                    raise Failed("serve")
                time.sleep(0.005)
        self.conn = c
        self.reader = c.makefile("rb")
        self.next_id = 0
        first = self.request({"op": "ping"})[1]
        self.boot_s = time.perf_counter() - t0
        if not s.check(first.get("status") == "ok", "serve ping"):
            raise Failed("serve")

    def request(self, req):
        """One closed-loop round trip: (seconds, reply)."""
        self.next_id += 1
        line = json.dumps(dict(req, id=self.next_id)).encode() + b"\n"
        t0 = time.perf_counter()
        self.conn.sendall(line)
        reply = self.reader.readline()
        dt = time.perf_counter() - t0
        return dt, json.loads(reply)

    def points_to(self, name):
        dt, r = self.request({"op": "points-to", "var": name})
        ok = r.get("status") == "ok" and r.get("degraded") is False
        if not self.s.check(ok, f"points-to {name}: {str(r)[:200]}"):
            raise Failed("points-to")
        return dt, r

    def stop(self):
        self.reader.close()
        self.conn.close()
        self.p.send_signal(signal.SIGTERM)
        self.s.check(self.s.reap(self.p) == 0, "cla serve drain exit")


class Queries:
    """Client-side latencies and server telemetry of points-to replies."""

    def __init__(self):
        self.lat = []
        self.queue_ms = []
        self.server_ms = []
        self.lines = []
        self.order = []

    def ask(self, srv, name, expect=None):
        dt, r = srv.points_to(name)
        self.lat.append(dt)
        tel = r.get("server", {})
        self.queue_ms.append(tel.get("queue_ms", 0.0))
        self.server_ms.append(tel.get("server_ms", 0.0))
        self.lines.append(json.dumps({"id": len(self.lines) + 1,
                                      "op": "points-to", "var": name}))
        if expect is not None:
            srv.s.check(sorted(r.get("targets", [])) == sorted(expect),
                        f"answer for {name} differs from the reference")

    def burst(self, srv, names, rng, n, expect=None):
        """[n] queries cycling through [names], each pass in a fresh seeded
        order, so every name is asked equally often."""
        for _ in range(n):
            if not self.order:
                self.order = list(names)
                rng.shuffle(self.order)
            name = self.order.pop()
            self.ask(srv, name, None if expect is None else expect[name])

    def percentile_us(self, q):
        xs = sorted(self.lat)
        return xs[max(0, math.ceil(q * len(xs)) - 1)] * 1e6


# --------------------------------------------------------------------------
# Traced replays
# --------------------------------------------------------------------------


class Trace:
    """Per-layer results of the in-process replays, grouped by the stage
    whose untraced time they must account for."""

    def __init__(self, s):
        self.s = s
        self.stages = {}
        self.untraced = {}

    def add(self, stage, result, untraced=None):
        """Merge one probe replay into [stage]: times, allocations and
        counts add up; a per-call median (query layers, replayed once)
        is kept as given."""
        st = self.stages.setdefault(stage, {"layers": {}, "counts": {}})
        for k, v in result["layers"].items():
            cur = st["layers"].setdefault(k, {"s": 0.0, "alloc_mb": 0.0})
            cur["s"] += v["s"]
            cur["alloc_mb"] += v["alloc_mb"]
            cur["median_s"] = v["median_s"]
        for k, v in result["counts"].items():
            st["counts"][k] = st["counts"].get(k, 0) + v
        if untraced is not None:
            self.untraced[stage] = untraced
        return result

    def layer(self, stage, key):
        return self.stages.get(stage, {"layers": {}})["layers"].get(key)

    def gap_pct(self, stage, total=None, e2e=None):
        """Signed share of the untraced stage time no layer accounts for
        (by default: the stage's layers, queries aside, against the
        stage's untraced wall)."""
        if total is None:
            total = sum(v["s"] for k, v in self.stages[stage]["layers"].items()
                        if k not in QUERY_KEYS)
        if e2e is None:
            e2e = self.untraced[stage]
        gap = (e2e - total) / e2e
        self.s.check(abs(gap) <= GAP_TOLERANCE,
                     f"trace: {stage} layers sum to {total:.3f}s against "
                     f"{e2e:.3f}s untraced")
        return 100.0 * gap


# (probe layer key, metric, stage it is read from).  Every layer also
# reports <key>.alloc_mb.
LAYERS = [
    ("cpp", "cpp.s", "compile"),
    ("cparser", "cparser.s", "compile"),
    ("normalize", "normalize.s", "compile"),
    ("compilep.lower", "compilep.lower_s", "compile"),
    ("objfile.write", "objfile.write_s", "compile"),
    ("objfile.read", "objfile.read_s", "link"),
    ("linkp.merge", "linkp.merge_s", "link"),
    ("objfile.write_linked", "objfile.write_linked_s", "link"),
    ("openworld.detect", "openworld.detect_s", "link"),
    ("openworld.synthesize", "openworld.synthesize_s", "openworld"),
    ("loader.load", "loader.load_s", "analyze"),
    ("andersen.init", "andersen.init_s", "analyze"),
    ("andersen.pass", "andersen.pass_s", "analyze"),
    ("andersen.extract", "andersen.extract_s", "analyze"),
    ("compilep.tu_hash", "compilep.tu_hash_s", "edit"),
    ("compilep.compile", "compilep.compile_s", "edit"),
    ("linkp.relink", "linkp.relink_s", "delta"),
    ("andersen.resume", "andersen.resume_s", "delta"),
    ("andersen.fallback", "andersen.fallback_s", "delta"),
]
QUERY_LAYERS = [
    ("protocol.parse", "protocol.parse_us"),
    ("solution.points_to", "solution.points_to_us"),
    ("protocol.render", "protocol.render_us"),
]
QUERY_KEYS = {key for key, _ in QUERY_LAYERS}
COUNTS = [
    ("andersen.passes", "analyze"),
    ("incremental.cache_hits", "edit"),
    ("incremental.cache_misses", "edit"),
    ("incremental.resumed", "delta"),
    ("incremental.fallbacks", "delta"),
    ("openworld.escaping", "openworld"),
]


def median_layers(runs):
    """Probe replays of one stage, combined layer by layer into their
    medians."""
    out = dict(runs[0])
    out["layers"] = {
        k: {f: statistics.median(r["layers"][k][f] for r in runs)
            for f in ("s", "alloc_mb", "median_s")}
        for k in runs[0]["layers"]}
    return out


def per_layer_metrics(tr, q, solution, gaps):
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for key, name, stage in LAYERS:
        lay = tr.layer(stage, key)
        if not tr.s.check(lay is not None, f"trace: no {key} layer in {stage}"):
            lay = {"s": 0.0, "alloc_mb": 0.0}
        put(name, lay["s"], "s")
        put(f"{key}.alloc_mb", lay["alloc_mb"], "MB")
    for key, name in QUERY_LAYERS:
        lay = tr.layer("query", key) or {"median_s": 0.0, "alloc_mb": 0.0}
        put(name, lay["median_s"] * 1e6, "us")
        put(f"{key}.alloc_mb", lay["alloc_mb"], "MB")
    for name, stage in COUNTS:
        put(name, tr.stages[stage]["counts"].get(name, 0), "count")
    qc = tr.stages["query"]["counts"]
    put("query.targets", qc.get("query.targets", 0) / max(1, qc.get("query.count", 1)), "count")
    put("serve.queue_ms", statistics.median(q.queue_ms), "ms")
    put("serve.server_ms", statistics.median(q.server_ms), "ms")
    put("solution.relations", solution[1], "count")
    put("solution.pointer_vars", solution[0], "count")
    for stage, pct in gaps.items():
        put(f"trace.{stage}_gap_pct", pct, "%")
    return m


# --------------------------------------------------------------------------
# Shared steps
# --------------------------------------------------------------------------


def objects_of(sources):
    return [src[:-2] + ".clo" for src in sources]


class Stage:
    """One timed `cla` stage, sampled one run at a time so that a workload
    can spread its samples over the whole run.  A shared VM's speed can
    shift by a third for seconds at a time: samples taken back to back
    all land in one such phase, samples spread out do not.  finish()
    checks that every sample produced the same output and returns the
    median wall time."""

    def __init__(self, s, tr, stage):
        self.s = s
        self.tr = tr
        self.stage = stage
        self.walls = []
        self.outputs = []
        self.runs = []

    def sample(self):
        wall, output = self.run_once()
        self.walls.append(wall)
        self.outputs.append(output)
        if self.tr and len(self.runs) < REPLAYS:
            self.runs.append(self.replay())

    def finish(self):
        self.s.check(all(o == self.outputs[0] for o in self.outputs),
                     f"repeated {self.stage} runs disagree")
        log(f"{self.stage} walls: " + " ".join(f"{w:.3f}" for w in self.walls))
        wall = statistics.median(self.walls)
        if self.tr:
            self.traced = self.tr.add(self.stage, median_layers(self.runs), wall)
            self.check_replay()
        return wall


class ColdCompile(Stage):
    """`cla compile -j1` into an empty object directory, every unit fresh."""

    def __init__(self, s, tr, sources):
        super().__init__(s, tr, "compile")
        self.sources = sources
        self.out_dir = os.path.join(s.work, "replay-compile")

    def run_once(self):
        sources = self.sources
        for clo in objects_of(sources):
            if os.path.exists(clo):
                os.unlink(clo)
        wall, out = self.s.cla("compile", ["compile", "-j1"] + sources)
        lines = [l for l in out.splitlines() if " -> " in l]
        self.s.check(len(lines) == len(sources) and not any("(cached)" in l for l in lines),
                     f"cold compile: {sum('(cached)' in l for l in lines)} unit(s) "
                     f"reported (cached), {len(lines)} of {len(sources)} compiled")
        return wall, [sha256(clo) for clo in objects_of(sources)]

    def replay(self):
        os.makedirs(self.out_dir, exist_ok=True)
        return self.s.probe(["trace-compile", "--out-dir", self.out_dir] + self.sources)

    def check_replay(self):
        same = all(sha256(src[:-2] + ".clo") ==
                   sha256(os.path.join(self.out_dir, os.path.basename(src)[:-2] + ".clo"))
                   for src in self.sources)
        self.s.check(same, "compile replay wrote different object bytes")


class Link(Stage):
    def __init__(self, s, tr, stage, objects, out):
        super().__init__(s, tr, stage)
        self.objects = objects
        self.out = out

    def run_once(self):
        wall, _ = self.s.cla("link", ["link"] + self.objects + ["-o", self.out])
        return wall, sha256(self.out)

    def replay(self):
        return self.s.probe(["trace-link", "--out", self.out + ".replay"] + self.objects)

    def check_replay(self):
        self.s.check(sha256(self.out + ".replay") == sha256(self.out),
                     "link replay wrote different bytes")


class Analyze(Stage):
    """`cla analyze`; counts() is the solution's (pointer vars, relations)."""

    def __init__(self, s, tr, stage, db):
        super().__init__(s, tr, stage)
        self.db = db

    def run_once(self):
        wall, out = self.s.cla("analyze", ["analyze", self.db])
        counts = summary_counts(out)
        self.s.check(counts is not None, "cla analyze printed no summary")
        return wall, counts

    def replay(self):
        return self.s.probe(["trace-analyze", self.db])

    def check_replay(self):
        r = self.traced
        self.s.check((r["pointer_vars"], r["relations"]) == self.counts(),
                     "analyze replay found a different solution")

    def counts(self):
        return self.outputs[0]


def once(stage):
    """A stage timed by a single sample."""
    stage.sample()
    return stage.finish()


def write_queries(q, work):
    path = os.path.join(work, "queries.jsonl")
    with open(path, "w") as f:
        f.write("\n".join(q.lines) + "\n")
    return path


def check_bytes(s, workload, seed, paths):
    """Object and database bytes must be identical across runs of one seed."""
    digests = {os.path.basename(p): sha256(p) for p in paths}
    cache = os.path.join(STATE, "cache", f"bytes-{workload}-{seed}.json")
    if os.path.exists(cache):
        with open(cache) as f:
            s.check(json.load(f) == digests,
                    f"{workload} seed {seed}: output bytes differ from an earlier run")
    else:
        with open(cache, "w") as f:
            json.dump(digests, f)


def reference(s, db):
    """The bit-vector solver's digest of a database, made once per
    database content and kept under .clabench/cache."""
    cache = os.path.join(STATE, "cache", f"ref-{sha256(db)}.json")
    if not os.path.exists(cache):
        ref = s.probe(["solve", "--algo", "bitvector", db])
        with open(cache, "w") as f:
            json.dump(ref, f)
    with open(cache) as f:
        return json.load(f)


def cli_edit(s, tr, tree, counts, checkpoint):
    """A one-unit edit rebuilt through the CLI: `cla compile` over every
    unit (the on-disk cache probe keeps all but the edited one), then
    link and analyze into a database of its own, with a checkpoint after
    each.  Returns (rebuild ms, edited source, link seconds)."""
    path, removal = tree.next_edit()
    s.check(not removal, "the first edit of a stream adds")
    clo = path[:-2] + ".clo"
    sources = tree.sources()
    if tr:
        pre = os.path.join(s.work, "pre-edit.clo")
        shutil.copyfile(clo, pre)
        out_dir = os.path.join(s.work, "replay-edit")
        os.makedirs(out_dir, exist_ok=True)
        tr.add("edit", s.probe(["trace-cliedit", "--out-dir", out_dir] + sources))
    wall_c, out = s.cla("edit compile", ["compile", "-j1"] + sources)
    cached = sum("(cached)" in l for l in out.splitlines())
    s.check(cached == len(sources) - 1,
            f"edit compile: {cached} of {len(sources)} cached, expected all but one")
    if tr:
        s.check(sha256(clo) == sha256(os.path.join(out_dir, os.path.basename(clo))),
                "edit replay compiled different bytes")
    checkpoint()
    # the link and analyze steps are the cold stage's commands, whose
    # layers are checked there; the trace accounts for the compile step
    db = os.path.join(s.work, "edit.cla")
    wall_l = once(Link(s, None, "edit link", tree.objects(), db))
    checkpoint()
    an = Analyze(s, None, "edit analyze", db)
    wall_a = once(an)
    # an edit that only adds assignments can only grow the solution
    s.check(all(a >= b for a, b in zip(an.counts(), counts)),
            f"solution shrank after an additive edit: {counts} -> {an.counts()}")
    checkpoint()
    if tr:
        tr.untraced["edit"] = wall_c
        watch_probe(s, tr, tree, path, pre)
    return (wall_c + wall_l + wall_a) * 1e3, path, wall_l


def watch_probe(s, tr, tree, edited, pre):
    """Off-path layers on a workload that does not serve: the delta
    linker and solver resume on this workload's edit and its undo."""
    others = [o for o in tree.objects() if o != edited[:-2] + ".clo"]
    tr.add("delta", s.probe(["trace-watch", "--unit", edited, "--pre", pre,
                             "--post", edited[:-2] + ".clo"] + others))


def fragment(s, tr, source):
    """One unit linked and analyzed alone as an incomplete program —
    `cla link --open-world` then `cla analyze --open-world` — checked
    against its closed-world solution: every closed-world points-to set
    must be a subset of the open-world one."""
    clo = source[:-2] + ".clo"
    db = os.path.join(s.work, "fragment-open.cla")
    _, out = s.cla("fragment link", ["link", "--open-world", clo, "-o", db])
    s.check("open world:" in out, "open-world link printed no havoc summary")
    _, out = s.cla("fragment analyze", ["analyze", "--open-world", db])
    counts = summary_counts(out)
    sub = s.probe(["subset", db, clo])
    s.check(sub["violations"] == 0,
            f"open world is not a superset of closed world: {sub['violations']} "
            f"violation(s) over {sub['checked']} variables")
    s.check(counts == (sub["pointer_vars"], sub["relations"]),
            "cla analyze --open-world disagrees with the subset check's solve")
    if tr:
        tr.add("openworld", s.probe(["trace-link", "--open-world", "--out",
                                     db + ".replay", clo]))


def e2e(setup_s, compile_s, link_s, analyze_s, edit_ms, q, s):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "compile_s": {"value": compile_s, "unit": "s"},
        "link_s": {"value": link_s, "unit": "s"},
        "analyze_s": {"value": analyze_s, "unit": "s"},
        "edit_ms": {"value": edit_ms, "unit": "ms"},
        "query_p50_us": {"value": q.percentile_us(0.50), "unit": "us"},
        "query_p99_us": {"value": q.percentile_us(0.99), "unit": "us"},
        "peak_rss_mb": {"value": s.peak_kb / 1024.0, "unit": "MB"},
    }


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def build_1m(s, args, tr):
    rng = random.Random(args.seed)
    src = os.path.join(s.work, "src")
    tree = Tree(s, 1.0, args.seed, src)
    setup_s = tree.setup_s
    sources = tree.sources()
    compile_s = once(ColdCompile(s, tr, sources))
    db = os.path.join(s.work, "prog.cla")
    link_s = once(Link(s, tr, "link", tree.objects(), db))
    check_bytes(s, "build-1m", args.seed, tree.objects() + [db])

    sol = s.probe(["solve", db, "--sample", str(SAMPLE), "--seed", str(args.seed)])
    counts = (sol["pointer_vars"], sol["relations"])
    names = sorted(sol["sample"])
    srv = Server(s, [db], os.path.join(s.work, "s.sock"))
    srv.points_to(names[0])  # the first answer includes the lazy solve
    q = Queries()
    an = Analyze(s, tr, "analyze", db)

    def checkpoint():
        """A chunk of the queries, every answer checked, and one analyze
        sample; the checkpoints are spread over the rest of the run."""
        with pinned():
            q.burst(srv, names, rng, QUERIES // CHECKPOINTS, expect=sol["sample"])
        an.sample()

    checkpoint()
    if not tr:
        ref = reference(s, db)
        s.check(ref["digest"] == sol["digest"],
                "pre-transitive solution differs from the bit-vector reference")
    checkpoint()
    edit_ms, edited, edit_link_s = cli_edit(s, tr, tree, counts, checkpoint)
    # the edit's link is a second full link of the 109 objects, taken
    # half a minute after the cold one
    link_s = statistics.median([link_s, edit_link_s])
    s.check(len(an.walls) == CHECKPOINTS, "build-1m missed an analyze checkpoint")
    srv.stop()
    tree.close()
    analyze_s = an.finish()
    s.check(an.counts() == counts, "cla analyze disagrees with the reference solution")
    fragment(s, tr, edited)
    if tr:
        tr.add("query", s.probe(["trace-analyze", db, "--queries", write_queries(q, s.work)]))
        gaps = {st: tr.gap_pct(st) for st in ("compile", "link", "analyze", "edit")}
        return per_layer_metrics(tr, q, counts, gaps)
    return e2e(setup_s, compile_s, link_s, analyze_s, edit_ms, q, s)


def edit_serve(s, args, tr):
    rng = random.Random(args.seed)
    src = os.path.join(s.work, "src")
    names_path = os.path.join(s.work, "names.txt")
    tree = Tree(s, 0.25, args.seed, src, names=names_path)
    with open(names_path) as f:
        names = [l for l in f.read().split("\n") if l]
    s.check(len(names) > 0, "no queryable variables")
    # the timed cold build compiles a copy of the seeded tree, so its
    # input does not depend on how many edits a run gets through
    base = os.path.join(s.work, "base")
    os.makedirs(base)
    for path in tree.sources():
        shutil.copy(path, base)
    base_sources = sorted(glob.glob(os.path.join(base, "*.c")))
    base_db = os.path.join(s.work, "base.cla")
    cold = ColdCompile(s, tr, base_sources)
    link = Link(s, tr, "link", objects_of(base_sources), base_db)
    analyze = Analyze(s, tr, "analyze", base_db)
    pending = [[cold], [link, analyze], [link, analyze]] * ROUNDS

    sock = os.path.join(s.work, "s.sock")
    # an edit must be triggered by `reanalyze` alone: the poller sleeps
    # past the end of the run
    serve_args = ["--watch", src, "--watch-poll-ms", "3600000"]
    boots = []
    for i in range(SETUP_REPEATS):
        srv = Server(s, serve_args, sock)
        boots.append(srv.boot_s)
        if i < SETUP_REPEATS - 1:
            srv.stop()
    setup_s = statistics.median(boots)

    q = Queries()
    edits = []
    steps = 0
    removals = 0
    t0 = time.perf_counter()
    # the stream also runs until it has removed an earlier edit once, so
    # every run takes the solver's fallback path
    while (time.perf_counter() - t0 < args.seconds or pending
           or len(q.lat) < QUERIES_MIN or removals == 0) and steps < 400:
        _, removal = tree.next_edit()
        removals += removal
        steps += 1
        dt, r = srv.request({"op": "reanalyze"})
        edits.append(dt)
        s.check(r.get("status") == "ok" and r.get("changed") == 1
                and r.get("cache_misses") == 1,
                f"reanalyze step {steps}: {str(r)[:200]}")
        with pinned():
            q.burst(srv, names, rng, BURST)
        for stage in pending.pop(0) if pending else []:
            stage.sample()
    served = {}
    for name in names:
        served[name] = srv.points_to(name)[1].get("targets", [])
    srv.stop()
    tree.close()

    compile_s = cold.finish()
    link_s = link.finish()
    analyze_s = analyze.finish()
    check_bytes(s, "edit-serve", args.seed, objects_of(base_sources) + [base_db])
    sol = s.probe(["solve", base_db])
    s.check(analyze.counts() == (sol["pointer_vars"], sol["relations"]),
            "cla analyze disagrees with a fresh solve")
    fragment(s, tr, base_sources[0])

    # a cold build of the final tree is the oracle for the served answers
    sources = tree.sources()
    for clo in objects_of(sources):
        if os.path.exists(clo):
            os.unlink(clo)
    s.cla("final compile", ["compile", "-j1"] + sources)
    db = os.path.join(s.work, "final.cla")
    s.cla("final link", ["link"] + objects_of(sources) + ["-o", db])
    final = Analyze(s, None, "final analyze", db)
    once(final)
    oracle = s.probe(["solve", db, "--by-name", "--names", names_path])
    s.check(final.counts() == (oracle["pointer_vars"], oracle["relations"]),
            "cla analyze of the final tree disagrees with a fresh solve")
    for name in names:
        s.check(sorted(served[name]) == sorted(oracle["answers"][name]),
                f"served answer for {name} differs from the cold build")

    if tr:
        r = tr.add("edit", s.probe(
            ["trace-serve", "--scale", "0.25", "--seed", str(args.seed),
             "--steps", str(steps), "--dir", src,
             "--queries", write_queries(q, s.work)]))
        s.check(r["name_digest"] == oracle["digest"],
                "edit replay ended on a different solution than the cold build")
        tr.stages["delta"] = tr.stages["query"] = tr.stages["edit"]
        gaps = {st: tr.gap_pct(st) for st in ("compile", "link", "analyze")}
        # the median replayed step against the median served reanalyze
        gaps["edit"] = tr.gap_pct("edit", total=r["step_median_s"],
                                  e2e=statistics.median(edits))
        return per_layer_metrics(tr, q, analyze.counts(), gaps)
    return e2e(setup_s, compile_s, link_s, analyze_s,
               statistics.median(edits) * 1e3, q, s)


WORKLOADS = {"build-1m": build_1m, "edit-serve": edit_serve}


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def build():
    """Build `cla` and the probe from this checkout's sources."""
    if not (os.path.exists("dune-project") and os.path.isdir("lib")):
        log("not a CLA checkout: dune-project or lib/ missing")
        return False
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        "./bin/cla.exe", "./clabench/probe.exe"],
                       stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0 and os.path.exists(CLA) and os.path.exists(PROBE)


def interrupted(signum, _frame):
    raise Failed(f"signal {signum}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2
    os.makedirs(os.path.join(STATE, "cache"), exist_ok=True)
    # a fixed path: objects record their source paths, and their bytes
    # are compared across runs
    work = os.path.join(STATE, f"work-{args.workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    s = Session(work)
    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    tr = Trace(s) if args.trace else None
    metrics = None
    try:
        metrics = WORKLOADS[args.workload](s, args, tr)
    except Failed as e:
        log(f"workload aborted: {e}")
    except Exception as e:  # a broken run still reports, as a failure
        log(f"workload crashed: {e!r}")
    finally:
        s.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        s.failed = max(s.failed, 1)
        metrics = {}
    print(json.dumps({"correct": s.failed == 0, "attempted": max(1, s.attempted),
                      "failed": s.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
