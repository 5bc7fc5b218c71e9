#!/usr/bin/env python3
"""Cluster smoke / chaos driver: router + 3 shards + 1 follower.

Smoke mode (default) is the cluster determinism gate run as real processes
over loopback TCP:

1. boot three `mgrid_serve mode=shard` nodes and one `mode=follower`
   subscribed to shard-0;
2. drive a deterministic synthetic workload through `mgrid_router` with
   `span_period=4`, so a quarter of the LUs travel as traced frames;
3. assert the union of the shards' final states is bit-identical to the
   same workload run through a single-process `mgrid_serve mode=synthetic`,
   and the follower's final state is bit-identical to its primary's.

Chaos mode (--chaos) additionally murders a shard mid-run:

1. same topology, but the router runs paced with health probing AND the
   federation plane on (scraping every shard admin plane plus the
   follower's into /clusterz);
2. assert /clusterz reports every target up, no SLI paging and at least
   one cross-process trace merged before anything dies;
3. SIGKILL shard-2 (never the follower's primary) and assert the router's
   own /readyz degrades to 503 naming the dead shard, that /clusterz shows
   shard-2's replication lag spiking past the SLO threshold, and that the
   multi-window burn-rate monitor pages availability:shard-2 — the page
   names the burning shard, not just "something is wrong";
4. restart the shard on the same ports and assert /readyz recovers to 200
   (the short burn window drains), the page clears, the lag returns under
   threshold, and the shard's epoch is bumped in /statusz's cluster block;
5. after the run, the follower must still match its primary bit-exactly —
   replication determinism survives an unrelated shard's crash.

Stdlib only (urllib/subprocess) — runs on a bare CI python3.

Usage: cluster_chaos.py --serve build/examples/mgrid_serve \
                        --router build/examples/mgrid_router [--chaos]
"""

import argparse
import filecmp
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

ESTIMATOR = ["estimator=brown_polar", "alpha=0.3"]
WORKLOAD = ["nodes=120", "seed=11"]

_PORT_RE = re.compile(r"^(lu|admin) server listening on 127\.0\.0\.1:(\d+)$",
                      re.MULTILINE)


class Process:
    """One cluster process with a captured log and parsed listen ports."""

    def __init__(self, name, argv, log_path):
        self.name = name
        self.argv = argv
        self.log_path = log_path
        self.log = open(log_path, "w+", encoding="utf-8")
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=self.log)

    def ports(self, want, deadline=10.0):
        """Waits for `want` ("lu"/"admin") banner lines; returns name->port."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            with open(self.log_path, encoding="utf-8") as handle:
                found = {kind: int(port)
                         for kind, port in _PORT_RE.findall(handle.read())}
            if all(kind in found for kind in want):
                return found
            if self.proc.poll() is not None:
                self.dump()
                raise SystemExit(f"{self.name} exited before listening")
            time.sleep(0.05)
        self.dump()
        raise SystemExit(f"{self.name}: listen banner never appeared")

    def wait(self, deadline=30.0):
        try:
            return self.proc.wait(timeout=deadline)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.dump()
            raise SystemExit(f"{self.name}: did not exit in {deadline}s")

    def dump(self):
        self.log.flush()
        with open(self.log_path, encoding="utf-8") as handle:
            sys.stderr.write(f"--- {self.name} log ---\n{handle.read()}\n")


def readyz(port):
    """Returns (status_code, body) for the admin plane's /readyz."""
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/readyz", timeout=2.0) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()
    except OSError:
        return 0, ""


def await_readyz(port, status, what, deadline=20.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        code, body = readyz(port)
        if code == status:
            print(f"{what}: /readyz {code} {body.strip()!r}")
            return body
        time.sleep(0.1)
    raise SystemExit(f"{what}: /readyz never reached {status} "
                     f"(last: {code} {body.strip()!r})")


def get_json(port, path):
    """Fetches and parses an admin-plane JSON endpoint; None when down."""
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=2.0) as response:
            return json.load(response)
    except (OSError, ValueError):
        return None


def await_clusterz(port, predicate, what, deadline=30.0):
    """Polls /clusterz until `predicate(doc)` holds; returns the document."""
    end = time.monotonic() + deadline
    doc = None
    while time.monotonic() < end:
        doc = get_json(port, "/clusterz")
        if doc is not None and predicate(doc):
            print(f"clusterz: {what}")
            return doc
        time.sleep(0.2)
    sys.stderr.write(f"last /clusterz: {json.dumps(doc, indent=2)}\n")
    raise SystemExit(f"clusterz: {what!r} never held within {deadline}s")


def sli_states(doc):
    return {sli["name"]: sli["state"] for sli in doc["slo"]["slis"]}


def target_by_name(doc, name):
    return next(t for t in doc["targets"] if t["name"] == name)


def entries(path):
    doc = json.load(open(path, encoding="utf-8"))
    assert doc["schema"] == "mgrid-serve-final-v1", doc["schema"]
    return doc["entries"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True, help="mgrid_serve binary")
    parser.add_argument("--router", required=True, help="mgrid_router binary")
    parser.add_argument("--chaos", action="store_true",
                        help="SIGKILL a shard mid-run and assert recovery")
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()
    work = args.workdir or tempfile.mkdtemp(prefix="mgrid-cluster-")
    os.makedirs(work, exist_ok=True)
    print(f"workdir: {work}")

    def shard(index, port=0, admin=None):
        argv = [args.serve, "mode=shard", f"port={port}", *ESTIMATOR,
                f"final_out={work}/shard{index}.json"]
        if admin is not None:
            argv.append(f"admin_port={admin}")
        return Process(f"shard-{index}", argv, f"{work}/shard{index}.log")

    admin = 0 if args.chaos else None
    shards = [shard(i, admin=admin) for i in range(3)]
    ports = [s.ports({"lu", "admin"} if args.chaos else {"lu"})
             for s in shards]

    follower_argv = [args.serve, "mode=follower",
                     f"primary=127.0.0.1:{ports[0]['lu']}", *ESTIMATOR,
                     f"final_out={work}/follower.json"]
    if args.chaos:
        follower_argv.append("admin_port=0")  # federation scrape target
    follower = Process("follower", follower_argv, f"{work}/follower.log")
    follower_admin = follower.ports({"admin"})["admin"] if args.chaos else None
    time.sleep(0.2)  # let the subscription land before traffic starts

    shard_list = ",".join(
        f"{p['lu']}/{p['admin']}" if args.chaos else str(p["lu"])
        for p in ports)
    if args.chaos:
        # ticks=0: the router runs until /quitz, so the SLO windows — not a
        # fixed tick budget — set the timeline for page and recovery.
        router = Process(
            "router",
            [args.router, f"shards={shard_list}", *WORKLOAD, "ticks=0",
             "pace_ms=50", "admin_port=0", "health_period=0.2",
             "allow_degraded=1", "scrape_period=0.2", "span_period=8",
             f"followers={follower_admin}"],
            f"{work}/router.log")
        router_admin = router.ports({"admin"})["admin"]
        await_readyz(router_admin, 200, "router (all shards up)")

        # Federation healthy before the murder: every target (3 shards +
        # the follower) up, nothing paging, and at least one cross-process
        # span tree merged out of the shards' /tracez exemplars.
        healthy = await_clusterz(
            router_admin,
            lambda doc: (all(t["up"] for t in doc["targets"])
                         and len(doc["targets"]) == 4
                         and doc["slo"]["overall"] == "ok"
                         and doc["traces"]["merged"] >= 1),
            "all 4 targets up, slo ok, >=1 cluster trace merged")
        lag_before = target_by_name(healthy, "shard-2")[
            "replication_lag_seconds"]

        print("SIGKILL shard-2")
        shards[2].proc.kill()
        shards[2].proc.wait()
        body = await_readyz(router_admin, 503, "router (shard-2 dead)")
        if "shard-2" not in body:
            raise SystemExit(f"degraded /readyz does not name shard-2: {body!r}")

        # The dead shard's tick cursor freezes while cluster time advances:
        # its replication lag must spike past the SLO threshold, and the
        # multi-window burn-rate monitor must page the availability SLI
        # that names shard-2 specifically.
        paged = await_clusterz(
            router_admin,
            lambda doc: (not target_by_name(doc, "shard-2")["up"]
                         and target_by_name(
                             doc, "shard-2")["replication_lag_seconds"] > 1.5
                         and sli_states(doc).get(
                             "availability:shard-2") == "page"),
            "shard-2 down, lag past threshold, availability:shard-2 pages")
        lag_dead = target_by_name(paged, "shard-2")["replication_lag_seconds"]
        assert lag_dead > lag_before, (lag_before, lag_dead)
        print(f"clusterz: shard-2 lag {lag_before:.2f}s -> {lag_dead:.2f}s, "
              "availability:shard-2 paging")

        print("restarting shard-2 on the same ports")
        shards[2] = shard(2, port=ports[2]["lu"], admin=ports[2]["admin"])
        shards[2].ports({"lu", "admin"})
        # Readiness comes back once the health probe succeeds AND the short
        # burn window drains — 200 here means the page has already cleared.
        await_readyz(router_admin, 200, "router (shard-2 recovered)",
                     deadline=40.0)
        recovered = await_clusterz(
            router_admin,
            lambda doc: (target_by_name(doc, "shard-2")["up"]
                         and target_by_name(
                             doc, "shard-2")["replication_lag_seconds"] < 1.5
                         and sli_states(doc).get(
                             "availability:shard-2") == "ok"),
            "shard-2 up, lag back under threshold, page cleared")
        print(f"clusterz: shard-2 lag recovered to "
              f"{target_by_name(recovered, 'shard-2')['replication_lag_seconds']:.2f}s")

        status = get_json(router_admin, "/statusz")
        health = {s["name"]: s for s in status["cluster"]["shards"]}
        assert health["shard-2"]["epoch"] >= 2, health
        assert status["cluster"]["forward"]["tick_failures"] > 0, status
        print(f"statusz: shard-2 epoch {health['shard-2']['epoch']}, "
              f"{status['cluster']['forward']['tick_failures']} degraded "
              "tick(s) — crash observed and recovered")

        with urllib.request.urlopen(
                f"http://127.0.0.1:{router_admin}/quitz",
                timeout=2.0) as response:
            response.read()
        code = router.wait(deadline=60.0)
    else:
        # span_period=4: a quarter of the LUs travel as traced frames, so
        # both bit-identity gates below also cover the traced LU path.
        router = Process(
            "router", [args.router, f"shards={shard_list}", *WORKLOAD,
                       "ticks=30", "span_period=4"],
            f"{work}/router.log")
        code = router.wait()
    if code != 0:
        router.dump()
        raise SystemExit(f"router exited {code}")

    # Primary teardown drains the replication stream, so the follower sees a
    # clean end and exits 0 on its own.
    for s in shards:
        s.proc.send_signal(signal.SIGTERM)
    for s in shards:
        if s.wait() != 0:
            s.dump()
            raise SystemExit(f"{s.name} exited non-zero")
    if follower.wait() != 0:
        follower.dump()
        raise SystemExit("follower exited non-zero")

    if not filecmp.cmp(f"{work}/shard0.json", f"{work}/follower.json",
                       shallow=False):
        raise SystemExit("follower final state differs from its primary")
    print("follower final state bit-identical to shard-0")

    if not args.chaos:
        # Union gate only when nothing crashed: a SIGKILL'd shard loses its
        # directory, so chaos runs assert replication + recovery instead.
        reference = Process(
            "reference",
            [args.serve, "mode=synthetic", *WORKLOAD, "ticks=30", *ESTIMATOR,
             f"final_out={work}/reference.json"],
            f"{work}/reference.log")
        if reference.wait() != 0:
            reference.dump()
            raise SystemExit("reference run failed")
        union = sorted(
            (entry for i in range(3) for entry in entries(f"{work}/shard{i}.json")),
            key=lambda entry: entry["mn"])
        if union != entries(f"{work}/reference.json"):
            raise SystemExit(
                "shard union differs from the single-process directory")
        counts = [len(entries(f"{work}/shard{i}.json")) for i in range(3)]
        print(f"shard union {counts} bit-identical to the single-process "
              f"run ({sum(counts)} MNs)")
    print("cluster", "chaos" if args.chaos else "smoke", "PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
