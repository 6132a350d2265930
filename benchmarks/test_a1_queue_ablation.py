"""A1 — ablation (Section VI-H): uplink queue discipline.

The paper: "the uplink buffer implemented in the kernel is usually
oversized (around 1000 packets), dramatically increasing the overall
latency ... may be achieved by a combination of latency queuing and low
priority queues such as FQ_CoDel".

A MARTP session shares an asymmetric uplink with a greedy TCP upload,
under three uplink queue disciplines: oversized DropTail, CoDel, and
FQ-CoDel.

Expected shape: DropTail inflates the critical stream's latency by
hundreds of ms (bufferbloat); CoDel cuts it sharply; FQ-CoDel isolates
the thin MARTP flows from the bulk upload almost completely while the
upload still gets the remaining capacity.
"""

from conftest import run_once

from repro.analysis.report import ascii_table, format_time
from repro.core.session import OffloadSession, ScenarioBuilder
from repro.simnet.queues import CoDelQueue, DropTailQueue, FQCoDelQueue
from repro.transport.tcp import TcpConnection, TcpListener

DURATION = 20.0
UP_BPS = 6e6


def run_discipline(make_queue, seed=91):
    scenario = ScenarioBuilder(seed=seed).single_path(rtt=0.020, up_bps=UP_BPS)
    uplink = scenario.net.path_links("client", "server")[0]
    uplink.queue = make_queue()

    # Bulk TCP upload sharing the uplink (port clear of MARTP's 6000).
    TcpListener(scenario.net["server"], 81)
    upload = TcpConnection(scenario.net["client"], 6500, "server", 81)
    upload.on_established = upload.send_forever
    upload.connect()

    session = OffloadSession(scenario)
    report = session.run(DURATION)
    return report, upload


def test_a1_uplink_queue_discipline(benchmark, record_result):
    disciplines = {
        "DropTail(1000)": lambda: DropTailQueue(1000),
        "CoDel": lambda: CoDelQueue(),
        "FQ-CoDel": lambda: FQCoDelQueue(),
    }
    outcome = run_once(
        benchmark, lambda: {n: run_discipline(q) for n, q in disciplines.items()}
    )

    rows = []
    stats = {}
    for name, (report, upload) in outcome.items():
        meta = report.per_class[0]
        ref = report.per_class[2]
        upload_goodput = upload.snd_una * 8 / DURATION
        stats[name] = (meta.mean_latency, ref.in_time_ratio, upload_goodput)
        rows.append([
            name,
            format_time(meta.mean_latency),
            format_time(meta.p95_latency),
            f"{ref.in_time_ratio:.0%}",
            f"{upload_goodput / 1e6:.1f} Mb/s",
        ])
    table = ascii_table(
        ["uplink queue", "metadata latency", "metadata p95",
         "ref frames in-time", "TCP upload goodput"],
        rows,
        title="Ablation A1 — queue discipline on a shared 6 Mb/s uplink",
    )
    record_result("A1_queue_ablation", table)

    droptail, codel, fqcodel = (
        stats["DropTail(1000)"], stats["CoDel"], stats["FQ-CoDel"])
    # Bufferbloat: oversized DropTail pushes latency into the hundreds of ms.
    assert droptail[0] > 0.200
    # CoDel recovers most of it.
    assert codel[0] < droptail[0] / 3
    # FQ-CoDel isolates the MAR flow best of all.
    assert fqcodel[0] <= codel[0] * 1.2
    assert fqcodel[0] < 0.100
    # The bulk upload still makes real progress under AQM.
    assert codel[2] > 1e6 and fqcodel[2] > 1e6
