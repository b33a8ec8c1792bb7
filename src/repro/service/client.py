"""Blocking client for the campaign service (stdlib ``http.client`` only).

``cli submit`` and the tests talk to the daemon through this module, so
the wire protocol has exactly two implementations to keep honest: the
asyncio server and this thin synchronous client.  ``http.client``
de-chunks transfer-encoded responses transparently, which is what makes
:meth:`ServiceClient.events` a plain line iterator over live NDJSON.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Iterator, List, Optional


class ServiceError(RuntimeError):
    """A non-2xx answer from the daemon, with its status and body."""

    def __init__(self, status: int, payload: object) -> None:
        message = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"service answered {status}: {message}")
        self.status = status
        self.payload = payload
        self.retry_after: Optional[int] = None


class ServiceClient:
    """One daemon endpoint; every call opens its own connection."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
    ) -> object:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers: Dict[str, str] = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError):
                decoded = {"error": raw.decode("utf-8", "replace")}
            if response.status >= 400:
                error = ServiceError(response.status, decoded)
                retry_after = response.getheader("Retry-After")
                if retry_after and retry_after.isdigit():
                    error.retry_after = int(retry_after)
                raise error
            return decoded
        finally:
            conn.close()

    # -- API surface ---------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def submit(
        self,
        *,
        experiments: Optional[List[str]] = None,
        jobs: Optional[List[Dict[str, object]]] = None,
        client: str = "cli",
        accesses: Optional[int] = None,
        seed: Optional[int] = None,
        fault_rate: Optional[float] = None,
        ecc: Optional[str] = None,
        repetitions: Optional[int] = None,
    ) -> Dict[str, object]:
        """``POST /campaigns``; the acceptance doc (id, cached, queued...)."""
        body: Dict[str, object] = {"client": client}
        if experiments:
            body["experiments"] = list(experiments)
        if jobs:
            body["jobs"] = list(jobs)
        if accesses is not None:
            body["accesses"] = accesses
        if seed is not None:
            body["seed"] = seed
        if fault_rate is not None:
            body["fault_rate"] = fault_rate
        if ecc is not None:
            body["ecc"] = ecc
        if repetitions is not None:
            body["repetitions"] = repetitions
        return self._request("POST", "/campaigns", body)

    def campaign(self, campaign_id: str) -> Dict[str, object]:
        return self._request("GET", f"/campaigns/{campaign_id}")

    def results(self, campaign_id: str) -> Dict[str, object]:
        return self._request("GET", f"/campaigns/{campaign_id}/results")

    def run_table(self, campaign_id: str) -> str:
        """``GET /campaigns/{id}/run_table`` — the campaign's tidy CSV."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", f"/campaigns/{campaign_id}/run_table")
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                try:
                    decoded = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    decoded = {"error": raw.decode("utf-8", "replace")}
                raise ServiceError(response.status, decoded)
            return raw.decode("utf-8")
        finally:
            conn.close()

    def drain(self) -> Dict[str, object]:
        return self._request("POST", "/drain")

    def events(self, campaign_id: str) -> Iterator[Dict[str, object]]:
        """Follow ``GET /campaigns/{id}/events`` — yields each NDJSON event
        as it arrives, returning when the daemon closes the stream."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", f"/campaigns/{campaign_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    decoded = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    decoded = {"error": raw.decode("utf-8", "replace")}
                raise ServiceError(response.status, decoded)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue  # half a line at shutdown is not an event
        finally:
            conn.close()

    def run_campaign(
        self, *, on_event=None, **submit_kwargs
    ) -> Dict[str, object]:
        """Submit, follow the stream to completion, fetch the results.

        Returns the ``/results`` document with the final ``done`` event
        merged in under ``"final"``.  ``on_event`` (if given) sees every
        streamed event — ``cli submit`` points this at the progress
        printer.
        """
        submitted = self.submit(**submit_kwargs)
        campaign_id = str(submitted["id"])
        final: Dict[str, object] = {}
        for event in self.events(campaign_id):
            if on_event is not None:
                on_event(event)
            if event.get("event") == "done":
                final = event
        results = self.results(campaign_id)
        results["final"] = final
        results["submitted"] = submitted
        return results
