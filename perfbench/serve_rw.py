"""The ``serve-rw`` workload: a read/write mix through the HTTP front end.

One :class:`QueryService` with default settings except ``workers=1``
serves one database ``g`` with two binary relations over 40 values:

* ``E``, a seeded relabeling of a path through 32 of them (the other 8
  are spare leaves the writes attach to), read by ``reach``: FP
  transitive closure under ``monotone``, the strategy serve runs when a
  client names none, the heavy read;
* ``F``, a seeded G(40, p) graph with about half of all pairs joined by a
  walk of length 3, read by ``path3``: the FO^3 path-3 query, the light
  read.  ``F`` never changes.

Every round is one write and one read pair, in a fixed seeded script.
The write always changes ``E``: even rounds attach a seeded path vertex
to a seeded spare leaf, odd rounds take that edge away again.  A read
pair sends ``reach`` and ``path3`` together (two in flight, a closed
loop) and its latency is the time until both have answered.  Every pair
follows a write, so every pair is the same kind of operation and the mix
of subquery-cache hits and misses is the same in every run.  ``path3``
reads only ``F``, which no write touches; today it is recomputed after
every write all the same.

The client keeps its own mirror of ``E`` and ``F``, updated on every
acknowledged write, and checks every answer against :mod:`oracles`, so
a stale cached answer fails the run.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Set, Tuple

import oracles
from inproc import TC_QUERY, input_rng, path_query_text
from measure import Round, layer_self_ms, process_peak_rss_mb

Edge = Tuple[int, int]

#: Values of the database's domain.
DOMAIN = 40

#: Path vertices of ``E``; the remaining values are spare leaves.  At 32
#: a monotone closure takes ~0.1 s, a heavy read well over 50 ms.
PATH_N = 32

#: Edge probability of ``F``: n^2 p^3 = ln 2 gives about half the pairs
#: a walk of length 3.
F_P = (0.6931471805599453 / DOMAIN ** 2) ** (1 / 3)

#: The fixpoint strategy every read names in its ``/call`` body.  It is
#: the default of ``QueryService.call`` and of the ``/call`` route; it is
#: sent explicitly so that the strategy a run prints is the one its reads
#: ran, whatever those defaults become.
READ_STRATEGY = "monotone"


class ServeReadWrite:
    name = "serve-rw"

    def setup(self, seed: int) -> float:
        """Start the service and its worker, load the data, prepare both
        queries and serve one warm-up pair.

        Returns the seconds the two ``/prepare`` requests took."""
        from repro.serve.http import ServeHTTP
        from repro.serve.service import QueryService

        self.seed = seed
        rng = input_rng(seed, 0)
        order = list(range(DOMAIN))
        rng.shuffle(order)
        self.path = order[:PATH_N]
        self.spare = order[PATH_N:]
        self.edges_e: Set[Edge] = set(zip(self.path, self.path[1:]))
        self.edges_f: Set[Edge] = {
            (a, b) for a in range(DOMAIN) for b in range(DOMAIN)
            if rng.random() < F_P
        }
        self.expected_path3 = oracles.walks(self.edges_f, 3)
        self.added: List[int] = []
        self.loop = asyncio.new_event_loop()
        self.service = QueryService(workers=1)
        self.server = ServeHTTP(self.service)
        self.calls: Dict[str, Tuple[float, Dict[str, float]]] = {}
        self.mutations: List[float] = []
        self.pids: Set[int] = set()
        return self.loop.run_until_complete(self._start())

    async def _start(self) -> float:
        self.host, self.port = await self.server.start()
        await self._post("/register", {
            "name": "g",
            "domain": list(range(DOMAIN)),
            "relations": {
                "E": {"arity": 2, "tuples": sorted(self.edges_e)},
                "F": {"arity": 2, "tuples": sorted(self.edges_f)},
            },
        })
        start = time.perf_counter()
        await self._post("/prepare", {
            "name": "reach", "query": TC_QUERY, "output_vars": ["u", "v"],
        })
        await self._post("/prepare", {
            "name": "path3", "query": path_query_text(3, "F"),
            "output_vars": ["x", "y"],
        })
        prepared = time.perf_counter() - start
        answers = await asyncio.gather(self._read("reach"), self._read("path3"))
        problems = self._check(answers, oracles.closure(self.edges_e))
        if problems:
            raise RuntimeError("warm-up read: " + "; ".join(problems))
        return prepared

    def describe(self) -> dict:
        from repro.kernel.backend import resolve_backend
        from repro.perf.compile import resolve_compile

        return {
            "workload": self.name,
            "n": DOMAIN,
            "backend": resolve_backend(None, self.service.database("g").domain).name,
            "strategy": READ_STRATEGY,
            "compile": resolve_compile(None),
            "workers": 1,
        }

    # -- the client ------------------------------------------------------

    async def _post(self, path: str, body: dict) -> dict:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            payload = json.dumps(body).encode()
            writer.write(
                f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
                .encode() + payload
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            data = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        status = int(head.split(b" ", 2)[1])
        document = json.loads(data.decode())
        if status != 200:
            raise RuntimeError(f"{path} answered {status}: {document}")
        return document

    async def _read(self, query: str, trace: bool = False) -> Tuple[float, dict]:
        start = time.perf_counter()
        document = await self._post(
            "/call", {"tenant": "bench", "query": query, "db": "g",
                      "strategy": READ_STRATEGY, "trace": trace}
        )
        return time.perf_counter() - start, document

    def _check(self, answers, expected_reach: Set[Edge]) -> List[str]:
        problems = []
        for (_, document), expected in zip(
            answers, (expected_reach, self.expected_path3)
        ):
            rows = {tuple(row) for row in document["rows"]}
            if rows != expected:
                problems.append(f"{document['query']} differs from the oracle")
        return problems

    # -- layer hooks (traced runs only) ------------------------------------

    def instrument(self) -> None:
        """Time the service's public ``call``/``mutate`` from the outside,
        keeping each call's evaluation stats by request id."""
        call, mutate = self.service.call, self.service.mutate

        async def timed_call(*args, **kwargs):
            start = time.perf_counter()
            response = await call(*args, **kwargs)
            self.calls[response.request_id] = (
                time.perf_counter() - start, dict(response.stats),
            )
            return response

        def timed_mutate(*args, **kwargs):
            start = time.perf_counter()
            outcome = mutate(*args, **kwargs)
            self.mutations.append(time.perf_counter() - start)
            return outcome

        self.service.call = timed_call
        self.service.mutate = timed_mutate

    def _layers(self, out: Round, seconds: float, document: dict) -> None:
        """Per-layer samples and counts for one traced read."""
        spans = document.get("trace") or []
        call_s, _ = self.calls.pop(document["request_id"])
        attempts = [s for s in spans if s["name"] == "serve.attempt"]
        attempt_ids = {s["span_id"] for s in attempts}
        worker = sum(
            s["duration"] for s in spans
            if s["name"] == "evaluate" and s["parent_id"] in attempt_ids
        )
        attempt_s = sum(s["duration"] for s in attempts)
        for span in attempts:
            if "pid" in span["attrs"]:
                self.pids.add(int(span["attrs"]["pid"]))
        queue = float(document["queue_wait"])
        out.sample("serve.http_ms", (seconds - call_s) * 1000.0)
        out.sample("serve.queue_wait_ms", queue * 1000.0)
        out.sample("serve.ipc_ms", (attempt_s - worker) * 1000.0)
        out.sample("serve.worker_eval_ms", worker * 1000.0)
        out.sample("serve.bookkeeping_ms", (call_s - queue - attempt_s) * 1000.0)
        for name, value in layer_self_ms(spans).items():
            out.sample(name, value)

    def _count(self, out: Round, document: dict) -> None:
        stats = self.calls[document["request_id"]][1]
        out.evaluations += 1
        out.count("core.table_ops", stats.get("table_ops", 0))
        out.count("core.fixpoint_iterations", stats.get("fixpoint_iterations", 0))
        out.peak("core.max_intermediate_rows", stats.get("max_intermediate_rows", 0))
        hits = stats.get("subquery_cache_hits", 0)
        misses = stats.get("subquery_cache_misses", 0)
        out.count("cache.read_hits", hits)
        out.count("cache.read_misses", misses)
        out.count("cache.read_hit_ratio", hits / (hits + misses) if hits + misses else 0.0)

    # -- one round -------------------------------------------------------

    def run_round(self, index: int, traced: bool) -> Round:
        return self.loop.run_until_complete(self._round(index, traced))

    def _write_for(self, index: int) -> Tuple[str, List[int]]:
        if index % 2 == 0:
            rng = input_rng(self.seed, index + 1)
            return "add", [rng.choice(self.path), rng.choice(self.spare)]
        return "remove", self.added

    async def _round(self, index: int, traced: bool) -> Round:
        out = Round(attempted=3)
        op, values = self._write_for(index)
        start = time.perf_counter()
        try:
            outcome = await self._post("/mutate", {
                "db": "g", "op": op, "relation": "E", "values": values,
            })
        except (OSError, RuntimeError, ValueError) as exc:
            out.failed = out.attempted
            out.wrong.append(f"round {index}: write failed: {exc}")
            return out
        write_s = time.perf_counter() - start
        out.writes.append(write_s)
        if not outcome.get("applied"):
            out.wrong.append(f"round {index}: write {op} {values} not applied")
        elif op == "add":
            self.edges_e.add(tuple(values))
            self.added = values
        else:
            self.edges_e.discard(tuple(values))
        if self.mutations:
            out.sample("database.mutate_ms", self.mutations.pop() * 1000.0)
        expected_reach = oracles.closure(self.edges_e)
        start = time.perf_counter()
        try:
            answers = await asyncio.gather(
                self._read("reach", traced), self._read("path3", traced)
            )
        except (OSError, RuntimeError, ValueError) as exc:
            out.failed += 2
            out.wrong.append(f"round {index}: read failed: {exc}")
            return out
        pair_s = time.perf_counter() - start
        out.latencies.append(pair_s)
        out.wrong.extend(
            f"round {index}: {p}" for p in self._check(answers, expected_reach)
        )
        for seconds, document in answers:
            if document["request_id"] in self.calls:
                self._count(out, document)
                if traced:
                    self._layers(out, seconds, document)
                else:
                    self.calls.pop(document["request_id"])
        return out

    def extra_rss_mb(self) -> float:
        """Peak resident set of the pool worker, found by one traced read."""
        if not self.pids:
            _, document = self.loop.run_until_complete(self._read("path3", True))
            for span in document.get("trace") or []:
                if span["name"] == "serve.attempt" and "pid" in span["attrs"]:
                    self.pids.add(int(span["attrs"]["pid"]))
        return sum(process_peak_rss_mb(pid) for pid in self.pids)

    def close(self) -> None:
        import multiprocessing.forkserver
        import multiprocessing.resource_tracker

        self.service.close()
        self.loop.run_until_complete(self.server.close())
        self.loop.close()
        # the pool's forkserver and resource tracker outlive the pool;
        # stop them so the run ends with every process it started
        for helper in (
            multiprocessing.forkserver._forkserver,
            multiprocessing.resource_tracker._resource_tracker,
        ):
            helper._stop()
