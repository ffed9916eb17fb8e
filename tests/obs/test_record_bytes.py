"""The bytes of every record stream, pinned.

One overloaded service session (the ``slo`` bench leg's overload mix,
8 compute jobs per best-effort tenant instead of 24) runs with a
telemetry bus writing its JSONL and a flight recorder dumping incidents,
once without and once with SLO backpressure.  The session stream, the
SLO stream, the telemetry JSONL and the incident dumps (concatenated in
file-name order) must hash to the digests below, recorded before the
streams shared one writer: a refactor of how records are written must
not move a byte.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.service_bench import TOTAL_SLOTS
from repro.bench.slo_bench import (
    OVERLOAD_BG,
    OVERLOAD_BG_GAP,
    OVERLOAD_BG_KW,
    OVERLOAD_N_PRIO,
    OVERLOAD_POLICY,
    OVERLOAD_PRIO,
    OVERLOAD_PRIO_GAP,
    OVERLOAD_PRIO_KW,
)
from repro.obs.live import FlightRecorder, TelemetryBus
from repro.obs.records import read_records
from repro.service import Service

#: sha256 of (session, SLO, telemetry, incident dumps), dump count, and
#: burn records in the SLO stream.
DIGESTS = {
    False: ((
        "2f9a8b3597d996c52683a487ef32e1c901a190cf4d7eaec31bc74bd26c1c036f",
        "178be3e0b39b291007c8ebbdd5ddd5926f194f3224fbe0d9e8fc703da1840faf",
        "3353fc5f4a2d60afda65482f144ee1dee1e36387fa528a828f54debbd5f6d669",
        "bd7cad06ae0c999b8bb492eb3612c3fa17f69c001e6aee9535142e2aef5b994e",
    ), 6, 1),
    True: ((
        "08da4489fab47a6592a73c578f639f0a9a1ed9cd30fcbacc0e18354b55acd99d",
        "d1e0603192c6c15a6b4da3de3f506d949aa4beb7323a345733bf67712f7c263e",
        "d36248df31b8271a0ad5a3f2a1c4ad5073ed40a437a044edcdeaa8b99b03edf8",
        "3cbc6734c81a130b31f3c4770a90870c0389184bb822e3ba98925c0f7922a91a",
    ), 14, 2),
}


def run_overload(tmp_path, backpressure):
    bus = TelemetryBus(sample_interval=2e-4, jsonl=tmp_path / "telemetry.jsonl")
    bus.add_subscriber(FlightRecorder(incident_dir=tmp_path / "incidents"))
    svc = Service(total_slots=TOTAL_SLOTS, scheduler="fair",
                  slo=[OVERLOAD_POLICY], backpressure=backpressure,
                  telemetry=bus)
    svc.add_tenant(OVERLOAD_PRIO, 2.0, priority=True)
    for t in OVERLOAD_BG:
        svc.add_tenant(t, 1.0)
    for k in range(OVERLOAD_N_PRIO):
        svc.submit(OVERLOAD_PRIO, workload="heat", at=k * OVERLOAD_PRIO_GAP,
                   workload_kwargs=dict(OVERLOAD_PRIO_KW, seed=k))
    for i, t in enumerate(OVERLOAD_BG):
        for k in range(8):
            svc.submit(t, workload="compute",
                       at=1e-5 * (i + 1) + k * OVERLOAD_BG_GAP,
                       workload_kwargs=dict(OVERLOAD_BG_KW, seed=100 + k))
    svc.run()
    bus.close()
    svc.close()
    dumps = sorted((tmp_path / "incidents").iterdir(), key=lambda p: p.name)
    return svc, dumps


@pytest.mark.parametrize("backpressure", [False, True], ids=["off", "on"])
def test_streams_keep_their_bytes(tmp_path, backpressure):
    svc, dumps = run_overload(tmp_path, backpressure)
    streams = (
        svc.session.to_bytes(),
        svc.slo.stream.to_bytes(),
        (tmp_path / "telemetry.jsonl").read_bytes(),
        b"".join(p.read_bytes() for p in dumps),
    )
    digests, n_dumps, n_burns = DIGESTS[backpressure]
    assert len(dumps) == n_dumps
    assert sum(r["kind"] == "burn" for r in svc.slo.stream.events()) == n_burns
    assert tuple(hashlib.sha256(b).hexdigest() for b in streams) == digests
    # the strict reader takes back every stream the run wrote
    assert read_records(svc.session.write(tmp_path / "session.jsonl"))[0][
        "schema"] == "repro-service-session/1"
    assert read_records(tmp_path / "telemetry.jsonl")[0]["kind"] == "session"
