"""Minimal stdlib clients for the policy server.

:class:`AsyncServingClient` keeps one persistent HTTP/1.1 connection and
is what the load generator and the tests drive; :class:`ServingClient`
wraps ``http.client`` for synchronous callers (demo scripts, notebooks).
:func:`read_message` is the HTTP/1.1 message reader both ends of an
asyncio connection share: the server reads requests with it and
:class:`AsyncServingClient` reads responses.
"""

from __future__ import annotations

import asyncio
import http.client
import json

__all__ = ["AsyncServingClient", "ServingClient", "ServerError",
           "read_message"]

# The longest head line accepted, as ``StreamReader.readline`` allows.
_LINE_LIMIT = 2 ** 16


def _head_end(buffer):
    """``(end of the head's lines, start of the body)`` in ``buffer``, or
    None while no empty line (``\\r\\n`` or a bare ``\\n``) ends a head."""
    if buffer.startswith((b"\n", b"\r\n")):
        return 0, 0  # an empty start line: a head with nothing in it
    crlf = buffer.find(b"\n\r\n")
    lf = buffer.find(b"\n\n")
    if lf >= 0 and (crlf < 0 or lf < crlf):
        return lf, lf + 2
    if crlf >= 0:
        return crlf, crlf + 3
    return None


def _check_line_lengths(data):
    if len(data) > _LINE_LIMIT and (
        max(map(len, data.split(b"\n"))) > _LINE_LIMIT
    ):
        raise ValueError(f"a head line is longer than {_LINE_LIMIT} bytes")


async def read_message(reader, buffer):
    """Read one HTTP/1.1 message: ``(start-line fields, headers, body)``,
    or None when the stream ends before a message starts.

    ``buffer`` is the connection's ``bytearray`` of bytes read but not yet
    used.  The head is found in it and split in memory, reading more only
    while it is incomplete, so a message written at once costs one read
    for head and body together.  What follows the body (a pipelined next
    message) stays in ``buffer``.  Header names are lower-cased.

    A head ends at its first empty line, ``\\r\\n`` or a bare ``\\n``; a
    stream that ends inside a head ends it too.  A start line of fewer
    than two fields, a head line longer than 64 KiB or a bad
    ``Content-Length`` raises ``ValueError``; a stream that ends inside a
    body raises :class:`asyncio.IncompleteReadError`.
    """
    bounds = _head_end(buffer) if buffer else None
    while bounds is None:
        _check_line_lengths(buffer)
        data = await reader.read(_LINE_LIMIT)
        if not data:
            if not buffer:
                return None
            bounds = len(buffer), len(buffer)
            break
        buffer += data
        bounds = _head_end(buffer)
    end, body_start = bounds
    head = buffer[:end]
    _check_line_lengths(head)
    lines = head.decode("latin1").split("\n")
    fields = lines[0].split()
    if len(fields) < 2:
        raise ValueError(f"malformed start line: {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    if length < 0:
        raise ValueError(f"negative Content-Length: {length}")
    body_end = body_start + length
    while len(buffer) < body_end:
        data = await reader.read(_LINE_LIMIT)
        if not data:
            raise asyncio.IncompleteReadError(bytes(buffer[body_start:]),
                                              length)
        buffer += data
    body = bytes(buffer[body_start:body_end])
    del buffer[:body_end]
    return fields, headers, body


class ServerError(RuntimeError):
    """A non-200 response; carries the HTTP status code."""

    def __init__(self, status, message):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class AsyncServingClient:
    """One keep-alive connection to a policy server.

    Requests on a single client are serialised (one connection, one
    in-flight request); open several clients for concurrency — that is
    exactly what the load generator does.
    """

    def __init__(self, host, port):
        self.host = host
        self.port = int(port)
        self._reader = None
        self._writer = None
        self._buffer = bytearray()

    async def connect(self):
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._buffer.clear()
        return self

    async def close(self):
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self):
        return await self.connect()

    async def __aexit__(self, exc_type, exc_value, tb):
        await self.close()

    async def request(self, method, path, payload=None):
        """One round-trip; returns the decoded JSON document."""
        if self._writer is None:
            await self.connect()
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin1") + body)
        await self._writer.drain()

        response = await read_message(self._reader, self._buffer)
        if response is None:
            raise ConnectionError("server closed the connection")
        fields, _, raw = response
        status = int(fields[1])
        document = json.loads(raw) if raw else {}
        if status != 200:
            raise ServerError(status, document.get("error", raw.decode()))
        return document

    async def act(self, observation, agent, greedy=False):
        """One decision; returns the response document."""
        return await self.request(
            "POST", "/v1/act",
            {
                "observation": [float(x) for x in observation],
                "agent": int(agent),
                "greedy": bool(greedy),
            },
        )

    async def act_batch(self, observations, agents, greedy=False,
                        return_probs=False):
        """A batch of decisions submitted atomically."""
        return await self.request(
            "POST", "/v1/act-batch",
            {
                "observations": [[float(x) for x in row]
                                 for row in observations],
                "agents": [int(a) for a in agents],
                "greedy": greedy,
                "return_probs": return_probs,
            },
        )

    async def health(self):
        return await self.request("GET", "/healthz")

    async def stats(self):
        return await self.request("GET", "/v1/stats")

    async def metrics(self):
        return await self.request("GET", "/metrics")


class ServingClient:
    """Synchronous convenience client over ``http.client``."""

    def __init__(self, host, port, timeout=30.0):
        self.connection = http.client.HTTPConnection(
            host, int(port), timeout=timeout
        )

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        raw = response.read()
        document = json.loads(raw) if raw else {}
        if response.status != 200:
            raise ServerError(
                response.status, document.get("error", raw.decode())
            )
        return document

    def act(self, observation, agent, greedy=False):
        return self.request(
            "POST", "/v1/act",
            {
                "observation": [float(x) for x in observation],
                "agent": int(agent),
                "greedy": bool(greedy),
            },
        )

    def act_batch(self, observations, agents, greedy=False,
                  return_probs=False):
        return self.request(
            "POST", "/v1/act-batch",
            {
                "observations": [[float(x) for x in row]
                                 for row in observations],
                "agents": [int(a) for a in agents],
                "greedy": greedy,
                "return_probs": return_probs,
            },
        )

    def health(self):
        return self.request("GET", "/healthz")

    def stats(self):
        return self.request("GET", "/v1/stats")

    def metrics(self):
        return self.request("GET", "/metrics")

    def close(self):
        self.connection.close()
