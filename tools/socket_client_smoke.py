#!/usr/bin/env python3
"""Minimal socket client for the pooled serve protocol (CI smoke).

Connects to a `pooled_cli serve --listen` server, streams one or more
request files, half-closes the write side, and prints every byte the
server sends back (result frames; the server's blank-line liveness
probes are harmless noise between frames). Exits nonzero if the server
hangs up without sending anything.

Usage: socket_client_smoke.py <host> <port> <jobs-file> [<jobs-file>...]
       socket_client_smoke.py --stats-probe <host> <port> <jobs-file>
       socket_client_smoke.py --concurrent <pooled_cli>
       socket_client_smoke.py --decode-v2 <pooled_cli>
       socket_client_smoke.py --route <pooled_cli> <jobs-file>
       socket_client_smoke.py --rolling-restart <pooled_cli> <jobs-file>

--stats-probe exercises the v2 `pooled-stats` observability frame under
load: connection A sends the jobs file and reads its results *without*
half-closing (so it stays live), then connection B sends a stats frame
and asserts the snapshot reconciles with the work -- jobs_served covers
every job A sent and connections_active counts both connections. The
stats frame body prints to stdout for the CI log.

--concurrent exercises socket serve with two v2 clients at once: it
simulates an instance (`pooled_cli simulate --n 500 --k 8 --seed 3
--budget 2.5`), starts `pooled_cli serve --listen 127.0.0.1:0
--progress`, and sends an adaptive:mn:L=16 job on one connection while
three seeded `random` jobs ride another. The adaptive job must converge,
seed 7 must repeat its support and seed 8 change it, every support must
equal the same frames served over stdin with --threads 1, and SIGTERM
must wind the server down with exit 0 and a "served 4 jobs over 2
connections" summary.

--decode-v2 exercises decode API v2 over stdin serve and the CLI: it
simulates its own instances (`run_v2.inst` with `--budget 2.5`, the
plain `run.inst`, and a binary `gt.inst`), serves an adaptive:mn:L=16 job
that must report its converged trajectory, then pins the `consistent
rounds queries stop` line of ten jobs (one-shot MN scores, noise, a
budget, multi-edge adaptive, adaptive MN on the binary channel). It also
checks a noisy CLI decode, the decoder listing, and that unknown
POOLED_KERNELS tiers fall back to auto dispatch with the same answer.

--route exercises the shard router's failover end to end: it spawns two
`pooled_cli serve --listen` shards and one `pooled_cli route` process
over them, streams the jobs file through the router's stdin, SIGKILLs
one shard mid-run, and asserts every job still produced exactly one
result frame, in submission order, with every status ok.

--rolling-restart exercises the durable-cache drain protocol end to
end: shard A serves with `--cache-file`, a routed batch runs, then a
`route --drain-shard 0` process drains A (which must snapshot its
cache and exit 0), A restarts on the same address with the same cache
file, the router readmits it, and a second batch must lose zero jobs
while A answers its share from the *restored* cache
(shard0.cache.snapshot_restores >= 1 and shard0.cache.hits >= 1 in the
fleet stats frame). Jobs must be cacheable: deterministic, and not
deadline-capped (deadline/cancel stops are never cached).
"""
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


def read_frames(conn: socket.socket, frame_count: int) -> bytes:
    """Reads until `frame_count` end-framed messages have arrived."""
    received = b""
    while received.count(b"\nend\n") < frame_count:
        chunk = conn.recv(1 << 16)
        if not chunk:
            raise SystemExit("server hung up mid-stream")
        received += chunk
    return received


def snapshot_value(body: str, kind: str, name: str) -> float:
    for line in body.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == kind and parts[1] == name:
            return float(parts[2])
    raise SystemExit(f"stats frame is missing '{kind} {name}'")


def stats_probe(host: str, port: int, jobs_path: str) -> int:
    with open(jobs_path, "rb") as jobs_file:
        jobs = jobs_file.read()
    job_count = jobs.count(b"pooled-job")
    with socket.create_connection((host, port), timeout=60) as conn_a:
        conn_a.sendall(jobs)  # no half-close: connection A stays live
        results = read_frames(conn_a, job_count)
        if results.count(b"status ok") != job_count:
            print(results.decode(), file=sys.stderr)
            raise SystemExit("not every job succeeded")
        with socket.create_connection((host, port), timeout=60) as conn_b:
            conn_b.sendall(b"pooled-stats v2\nend\n")
            body = read_frames(conn_b, 1).decode()
            sys.stdout.write(body)
            if "pooled-stats-result v2" not in body:
                raise SystemExit("expected a pooled-stats-result frame")
            served = snapshot_value(body, "counter", "serve.jobs_served")
            if served < job_count:
                raise SystemExit(
                    f"jobs_served {served:.0f} < {job_count} jobs sent")
            active = snapshot_value(body, "gauge", "serve.connections_active")
            if active != 2:
                raise SystemExit(f"connections_active {active:.0f} != 2")
            conn_b.shutdown(socket.SHUT_WR)
        conn_a.shutdown(socket.SHUT_WR)
        while conn_a.recv(1 << 16):
            pass
    print(f"stats probe ok: {job_count} jobs reconciled", file=sys.stderr)
    return 0


def exchange(host: str, port: int, payload: bytes) -> bytes:
    """Sends `payload`, half-closes ("no more requests"), and returns
    everything the server sends back until it closes."""
    with socket.create_connection((host, port), timeout=60) as conn:
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = conn.recv(1 << 16)
            if not chunk:
                return received
            received += chunk


def spawn_serve(cli, extra_args=(), listen="127.0.0.1:0"):
    """Starts `pooled_cli serve --listen <listen> [extra_args...]`.

    Returns (proc, addr, banner): the stderr text consumed up to and
    including the "listening on <addr>" readiness line, which carries
    the kernel-assigned port -- and, on a warm start, the
    "cache: restored N entries" line that precedes it.
    """
    proc = subprocess.Popen(
        [cli, "serve", "--listen", listen, *extra_args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    banner = ""
    for _ in range(20):
        line = proc.stderr.readline()
        if not line:
            break
        banner += line
        match = re.search(r"listening on (\S+)", line)
        if match:
            return proc, match.group(1), banner
    proc.kill()
    raise SystemExit(f"shard never came up: {banner!r}")


def support_lines(frames: bytes) -> list:
    return [line for line in frames.decode().splitlines()
            if line.startswith("support")]


def concurrent_smoke(cli: str) -> int:
    workdir = tempfile.mkdtemp(prefix="pooled-concurrent-")
    server = None
    try:
        instance_path = os.path.join(workdir, "run_v2.inst")
        truth_path = os.path.join(workdir, "truth_v2.txt")
        subprocess.run(
            [cli, "simulate", "--n", "500", "--k", "8", "--seed", "3",
             "--budget", "2.5", "--out", instance_path,
             "--truth-out", truth_path],
            check=True, stdout=subprocess.DEVNULL, timeout=120)
        with open(instance_path, "rb") as f:
            instance = f.read()
        with open(truth_path) as f:
            truth = " ".join(f.read().split())
        adaptive = (f"pooled-job v2\ndecoder adaptive:mn:L=16\nk 8\n"
                    f"truth {truth}\ninstance\n").encode() + instance + b"end\n"
        # Seeded random jobs: the same seed must reproduce the same
        # support over the wire, a different seed must change it.
        seeded = b"".join(
            f"pooled-job v2\ndecoder random\nk 8\nseed {seed}\ninstance\n"
            .encode() + instance + b"end\n" for seed in (7, 7, 8))

        server, addr, _ = spawn_serve(cli, ["--progress"])
        # The server's remaining stderr (progress lines, then the
        # summary) drains in the background so it never blocks on it.
        stderr_tail = []
        drain = threading.Thread(
            target=lambda: stderr_tail.append(server.stderr.read()))
        drain.start()
        host, port = addr.rsplit(":", 1)
        answers = {}
        client = threading.Thread(
            target=lambda: answers.update(
                adaptive=exchange(host, int(port), adaptive)))
        client.start()
        answers["seeded"] = exchange(host, int(port), seeded)
        client.join()

        if answers["adaptive"].count(b"status ok") != 1:
            raise SystemExit("adaptive client: expected 1 ok frame")
        if b"stop converged" not in answers["adaptive"]:
            raise SystemExit("adaptive client: the decode did not converge")
        if answers["seeded"].count(b"status ok") != 3:
            raise SystemExit("seeded client: expected 3 ok frames")
        supports = support_lines(answers["seeded"])
        if len(supports) != 3 or supports[0] != supports[1] \
                or supports[0] == supports[2]:
            raise SystemExit(f"seeded supports: seed 7 must repeat and seed "
                             f"8 differ: {supports}")
        # Each connection answers exactly what one thread serving the same
        # frames over stdin does.
        for name, frames in (("adaptive", adaptive), ("seeded", seeded)):
            served = subprocess.run(
                [cli, "serve", "--in", "-", "--out", "-", "--threads", "1"],
                input=frames, capture_output=True, timeout=120)
            if served.returncode != 0:
                raise SystemExit(f"stdin serve of the {name} frames failed")
            if support_lines(answers[name]) != support_lines(served.stdout):
                raise SystemExit(f"{name} client: supports differ from "
                                 "stdin serve with --threads 1")

        # SIGTERM winds the server down cleanly (exit 0 + summary).
        server.send_signal(signal.SIGTERM)
        if server.wait(timeout=60) != 0:
            raise SystemExit("server exited nonzero after SIGTERM")
        drain.join()
        if "served 4 jobs over 2 connections" not in "".join(stderr_tail):
            raise SystemExit(f"no clean-shutdown summary: {stderr_tail!r}")
    finally:
        if server is not None and server.poll() is None:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    print("concurrent smoke ok: 4 jobs over 2 connections, supports match "
          "stdin serve, clean shutdown", file=sys.stderr)
    return 0


def job_frame(decoder: str, instance: bytes, options=(), version=2) -> bytes:
    """One `pooled-job` frame around an instance file's bytes."""
    head = f"pooled-job v{version}\ndecoder {decoder}\nk 8\n"
    head += "".join(f"{option}\n" for option in options)
    return (head + "instance\n").encode() + instance + b"end\n"


def serve_stdin(cli: str, frames: bytes, threads: int) -> str:
    """Serves `frames` over stdin with `threads` lanes; returns stdout."""
    served = subprocess.run(
        [cli, "serve", "--in", "-", "--out", "-", "--threads", str(threads)],
        input=frames, capture_output=True, timeout=120)
    if served.returncode != 0:
        raise SystemExit(f"stdin serve failed: {served.stderr.decode()}")
    return served.stdout.decode()


# The served `consistent` flag, pinned both ways, with each job's
# trajectory. One-shot MN jobs answer through the fingerprint their own
# pass recorded. Adaptive MN jobs on the quantitative run_v2.inst (520
# queries) fold 384 queries before converging, all 520, and 40 under
# `budget 40`, and each completes its fingerprint to all 520 queries, so
# every verdict is O(k). On the binary gt.inst the check is the exact pass.
DECODE_V2_JOBS = (
    ("mn", "run_v2", ()),
    ("mn:raw", "run_v2", ()),
    ("mn:normalized", "run_v2", ()),
    ("mn:multi-edge", "run_v2", ()),
    ("mn", "run_v2", ("noise sym 0.2 7",)),
    ("adaptive:mn:L=16", "run_v2", ()),
    ("adaptive:mn:L=16", "run_v2", ("noise sym 0.2 7",)),
    ("adaptive:mn:L=16", "run_v2", ("budget 40",)),
    ("adaptive:mn:multi-edge:L=4", "run_v2", ()),
    ("adaptive:mn:L=16", "gt", ()),
)
DECODE_V2_WANT = [
    "consistent 1 rounds 1 queries 520 stop completed",
    "consistent 0 rounds 1 queries 520 stop completed",
    "consistent 1 rounds 1 queries 520 stop completed",
    "consistent 1 rounds 1 queries 520 stop completed",
    "consistent 0 rounds 1 queries 520 stop completed",
    "consistent 1 rounds 24 queries 384 stop converged",
    "consistent 0 rounds 33 queries 520 stop exhausted",
    "consistent 0 rounds 3 queries 40 stop exhausted",
    "consistent 1 rounds 46 queries 184 stop converged",
    "consistent 0 rounds 44 queries 700 stop exhausted",
]


def decode_v2_smoke(cli: str) -> int:
    workdir = tempfile.mkdtemp(prefix="pooled-decode-v2-")
    try:
        def path(name):
            return os.path.join(workdir, name)

        def simulate(name, *extra):
            subprocess.run(
                [cli, "simulate", "--n", "500", "--k", "8", "--seed", "3",
                 *extra, "--out", path(name + ".inst"),
                 "--truth-out", path(name + ".truth")],
                check=True, stdout=subprocess.DEVNULL, timeout=120)
            with open(path(name + ".inst"), "rb") as f:
                return f.read()

        instances = {
            "run_v2": simulate("run_v2", "--budget", "2.5"),
            "run": simulate("run"),
            "gt": simulate("gt", "--channel", "binary", "--gamma", "43",
                           "--m", "700"),
        }
        with open(path("run_v2.truth")) as f:
            truth = " ".join(f.read().split())

        # A v2 frame with an adaptive decoder reports its round trajectory;
        # the 2.5x budget leaves room for early stopping to converge.
        adaptive = serve_stdin(cli, job_frame(
            "adaptive:mn:L=16", instances["run_v2"], (f"truth {truth}",)), 1)
        for want in ("status ok", "decoder adaptive-mn-L16", "stop converged"):
            if want not in adaptive:
                raise SystemExit(f"adaptive v2 job: no '{want}' in {adaptive!r}")
        for field in ("rounds", "queries"):
            if not re.search(rf"^{field} [0-9]+$", adaptive, re.MULTILINE):
                raise SystemExit(f"adaptive v2 job reports no {field}")

        frames = b"".join(job_frame(decoder, instances[name], options)
                          for decoder, name, options in DECODE_V2_JOBS)
        results = serve_stdin(cli, frames, 2)
        if results.count("status ok") != len(DECODE_V2_JOBS):
            raise SystemExit(f"not every pinned job succeeded: {results!r}")
        fields = [line for line in results.splitlines()
                  if re.match(r"(consistent|rounds|queries|stop)\b", line)]
        got = [" ".join(fields[i:i + 4]) for i in range(0, len(fields), 4)]
        if got != DECODE_V2_WANT:
            raise SystemExit("pinned verdicts and trajectories moved:\n" +
                             "\n".join(f"want {w}\n got {g}" for w, g in
                                        zip(DECODE_V2_WANT, got) if w != g) +
                             f"\n({len(got)} of {len(DECODE_V2_WANT)} jobs)")

        # A noisy decode of the archived instance, via the engine.
        noisy = subprocess.run(
            [cli, "decode", "--in", path("run.inst"), "--k", "8",
             "--noise", "sym:0.05:7", "--truth", path("run.truth")],
            capture_output=True, text=True, timeout=120)
        if noisy.returncode != 0 or "stop=completed" not in noisy.stdout:
            raise SystemExit(f"noisy decode: {noisy.stdout!r} {noisy.stderr!r}")
        listing = subprocess.run([cli, "decoders"], capture_output=True,
                                 text=True, timeout=60)
        if "adaptive:<inner>" not in listing.stdout:
            raise SystemExit("`decoders` does not list adaptive:<inner>")

        # Kernel tiers the library no longer ships take the unknown-name
        # path: a note on stderr, then auto dispatch, and the answer of an
        # unset POOLED_KERNELS.
        def decode_lines(tier):
            env = dict(os.environ)
            env.pop("POOLED_KERNELS", None)
            if tier is not None:
                env["POOLED_KERNELS"] = tier
            run = subprocess.run(
                [cli, "decode", "--in", path("run_v2.inst"), "--k", "8"],
                capture_output=True, text=True, env=env, timeout=120)
            lines = [line for line in run.stdout.splitlines()
                     if re.match(r"(decoded|consistent)", line)]
            return lines, run.stderr

        auto, _ = decode_lines(None)
        if len(auto) != 2:
            raise SystemExit(f"auto-dispatch decode printed {auto!r}")
        for tier in ("sse42", "neon"):
            lines, err = decode_lines(tier)
            if f"unknown POOLED_KERNELS={tier}" not in err \
                    or "using auto dispatch" not in err:
                raise SystemExit(f"POOLED_KERNELS={tier}: stderr {err!r}")
            if lines != auto:
                raise SystemExit(f"POOLED_KERNELS={tier} answered {lines!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"decode v2 smoke ok: {len(DECODE_V2_JOBS)} pinned jobs, noisy "
          "decode, decoder listing, kernel fallback", file=sys.stderr)
    return 0


def route_smoke(cli: str, jobs_path: str) -> int:
    with open(jobs_path, "rb") as jobs_file:
        jobs = jobs_file.read()
    job_count = jobs.count(b"pooled-job")
    if job_count < 4:
        raise SystemExit("route smoke needs a jobs file with >= 4 jobs")
    shard_a, addr_a, _ = spawn_serve(cli)
    shard_b, addr_b, _ = spawn_serve(cli)
    router = subprocess.Popen(
        [cli, "route", "--shard", addr_a, "--shard", addr_b,
         "--no-affinity", "--window", "4"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    try:
        # Feed the whole stream, then SIGKILL shard A while the batch is
        # still in flight. The router must retry A's unanswered jobs on B
        # and keep the merged output in submission order.
        router.stdin.write(jobs)
        router.stdin.flush()
        time.sleep(0.3)
        shard_a.kill()
        router.stdin.close()
        received = router.stdout.read()
        if router.wait(timeout=120) != 0:
            raise SystemExit("router exited nonzero")
    finally:
        for proc in (shard_a, shard_b, router):
            if proc.poll() is None:
                proc.kill()
    results = received.count(b"pooled-result")
    if results != job_count:
        raise SystemExit(
            f"{results} result frames for {job_count} jobs "
            "(lost or duplicated under failover)")
    if received.count(b"status ok") != job_count:
        raise SystemExit("not every job survived the shard kill")
    indices = [int(m.group(1))
               for m in re.finditer(rb"\njob (\d+)\n", received)]
    if indices != list(range(job_count)):
        raise SystemExit(f"results out of submission order: {indices}")
    print(f"route smoke ok: {job_count} jobs, one shard SIGKILLed, "
          "zero lost, order preserved", file=sys.stderr)
    return 0


class PipeFrameReader:
    """End-framed reads from a pipe, carrying leftover bytes between
    calls (one os.read may return the tail of frame N plus the head of
    frame N+1)."""

    def __init__(self, stream):
        self.stream = stream
        self.buffer = b""

    def read_frames(self, frame_count: int) -> bytes:
        while self.buffer.count(b"\nend\n") < frame_count:
            chunk = os.read(self.stream.fileno(), 1 << 16)
            if not chunk:
                raise SystemExit("router hung up mid-stream")
            self.buffer += chunk
        split = 0
        for _ in range(frame_count):
            split = self.buffer.index(b"\nend\n", split) + len(b"\nend\n")
        frames, self.buffer = self.buffer[:split], self.buffer[split:]
        return frames


def run_jobs_direct(addr: str, jobs: bytes, job_count: int) -> None:
    """Streams `jobs` straight at one shard and asserts every job ok."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=60) as conn:
        conn.sendall(jobs)
        conn.shutdown(socket.SHUT_WR)
        received = read_frames(conn, job_count)
    if received.count(b"status ok") != job_count:
        raise SystemExit("direct pre-warm batch did not all succeed")


def check_batch(frames: bytes, job_count: int, first_index: int,
                label: str) -> None:
    if frames.count(b"pooled-result") != job_count:
        raise SystemExit(f"{label}: lost or duplicated result frames")
    if frames.count(b"status ok") != job_count:
        raise SystemExit(f"{label}: not every job succeeded")
    indices = [int(m.group(1))
               for m in re.finditer(rb"\njob (\d+)\n", frames)]
    if indices != list(range(first_index, first_index + job_count)):
        raise SystemExit(f"{label}: results out of submission order: "
                         f"{indices}")


def rolling_restart(cli: str, jobs_path: str) -> int:
    """Zero-downtime rolling restart of one shard behind a live router.

    The jobs file must contain deterministic, cacheable jobs (no
    deadline-ms: deadline-stopped reports are never cached, so they can
    never be answered from the restored snapshot).
    """
    with open(jobs_path, "rb") as jobs_file:
        jobs = jobs_file.read()
    job_count = jobs.count(b"pooled-job")
    if job_count < 4:
        raise SystemExit("rolling restart needs a jobs file with >= 4 jobs")
    workdir = tempfile.mkdtemp(prefix="pooled-rolling-")
    cache_file = os.path.join(workdir, "shard_a.cache")
    cache_args = ["--cache", "64", "--cache-file", cache_file]
    shard_a, addr_a, _ = spawn_serve(cli, cache_args)
    shard_b, addr_b, _ = spawn_serve(cli, ["--cache", "64"])
    # Pre-warm shard A's cache with every job key, straight at its
    # address: after the drain snapshots + the restart restores, *any*
    # batch-2 job the router round-robins to A is a guaranteed hit.
    run_jobs_direct(addr_a, jobs, job_count)
    # --window 1 emits every result before the next request is read:
    # with stdin held open between batches, a wider window would hold
    # back the batch tail until more input arrived.
    router = subprocess.Popen(
        [cli, "route", "--shard", addr_a, "--shard", addr_b,
         "--no-affinity", "--window", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    frames = PipeFrameReader(router.stdout)
    try:
        # Batch 1 rides both shards.
        router.stdin.write(jobs)
        router.stdin.flush()
        check_batch(frames.read_frames(job_count), job_count, 0, "batch 1")
        # Drain shard A through the routed drain path: it must snapshot
        # its cache, answer the summary, and exit 0 (the clean-drain
        # exit-status contract). The long-lived router sees A leave and
        # keeps serving from B.
        drain = subprocess.run(
            [cli, "route", "--shard", addr_a, "--drain-shard", "0"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120)
        if drain.returncode != 0:
            print(drain.stderr, file=sys.stderr)
            raise SystemExit("drain process exited nonzero")
        if "drained shard 0" not in drain.stderr \
                or "snapshot written" not in drain.stderr:
            print(drain.stderr, file=sys.stderr)
            raise SystemExit("drain summary missing from drain stderr")
        if shard_a.wait(timeout=60) != 0:
            raise SystemExit("drained shard exited nonzero")
        if not os.path.exists(cache_file):
            raise SystemExit("drain left no cache snapshot on disk")
        # Restart A on the same address with the same cache file; the
        # banner must show the warm start.
        shard_a, restarted_addr, banner = spawn_serve(
            cli, cache_args, listen=addr_a)
        if restarted_addr != addr_a:
            raise SystemExit(f"restarted shard moved: {restarted_addr}")
        if "cache: restored" not in banner:
            raise SystemExit(f"restarted shard started cold: {banner!r}")
        # Wait for the router's prober to readmit the restarted shard.
        # shards_alive alone can transiently count a not-yet-reaped stale
        # connection, so also require shard A's own ride-along snapshot
        # to report the restore -- that takes a stats round trip to the
        # live, warm backend.
        for _ in range(100):
            router.stdin.write(b"pooled-stats v2\nend\n")
            router.stdin.flush()
            body = frames.read_frames(1).decode()
            alive = snapshot_value(body, "gauge", "route.shards_alive")
            try:
                restores = snapshot_value(
                    body, "counter", "shard0.cache.snapshot_restores")
            except SystemExit:
                restores = 0.0
            if alive == 2 and restores >= 1:
                break
            time.sleep(0.2)
        else:
            raise SystemExit("restarted shard was never readmitted warm")
        # Batch 2: zero loss, and A must answer its share from the
        # restored snapshot.
        router.stdin.write(jobs)
        router.stdin.flush()
        check_batch(frames.read_frames(job_count), job_count, job_count,
                    "batch 2")
        router.stdin.write(b"pooled-stats v2\nend\n")
        router.stdin.flush()
        body = frames.read_frames(1).decode()
        restores = snapshot_value(
            body, "counter", "shard0.cache.snapshot_restores")
        if restores < 1:
            raise SystemExit("restarted shard reports no snapshot restore")
        hits = snapshot_value(body, "counter", "shard0.cache.hits")
        if hits < 1:
            raise SystemExit(
                "restarted shard answered nothing from the restored cache")
        router.stdin.close()
        if router.wait(timeout=120) != 0:
            raise SystemExit("router exited nonzero")
    finally:
        for proc in (shard_a, shard_b, router):
            if proc.poll() is None:
                proc.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"rolling restart ok: {2 * job_count} jobs, zero lost, "
          f"{hits:.0f} answered from the restored cache", file=sys.stderr)
    return 0


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "--route":
        if len(sys.argv) != 4:
            print(__doc__, file=sys.stderr)
            return 2
        return route_smoke(sys.argv[2], sys.argv[3])
    if len(sys.argv) >= 2 and sys.argv[1] == "--rolling-restart":
        if len(sys.argv) != 4:
            print(__doc__, file=sys.stderr)
            return 2
        return rolling_restart(sys.argv[2], sys.argv[3])
    if len(sys.argv) >= 2 and sys.argv[1] == "--decode-v2":
        if len(sys.argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return decode_v2_smoke(sys.argv[2])
    if len(sys.argv) >= 2 and sys.argv[1] == "--concurrent":
        if len(sys.argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return concurrent_smoke(sys.argv[2])
    if len(sys.argv) >= 2 and sys.argv[1] == "--stats-probe":
        if len(sys.argv) != 5:
            print(__doc__, file=sys.stderr)
            return 2
        return stats_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    payload = b""
    for path in sys.argv[3:]:
        with open(path, "rb") as jobs:
            payload += jobs.read()
    received = exchange(sys.argv[1], int(sys.argv[2]), payload)
    sys.stdout.write(received.decode())
    return 0 if b"pooled-result" in received else 1


if __name__ == "__main__":
    sys.exit(main())
