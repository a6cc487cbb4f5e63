"""Extension bench: ODR web-service decision throughput.

The paper runs ODR on "a low-end virtual machine ... 1 Mbps of Internet
access bandwidth" costing $20/month; that works because a decision is a
database lookup plus a handful of predicate evaluations -- no file
bytes.  This bench confirms the middleware sustains production-like
request rates in a single Python process.
"""

import json

from repro.core.webapp import OdrWebApp

QUERIES = [
    "/decide?link=magnet://origin/f{i}&popularity=200&bandwidth_mbps=20"
    "&ap=newifi&device=usb-flash&filesystem=ntfs",
    "/decide?link=http://host/f{i}&popularity=3&cached=1"
    "&bandwidth_mbps=0.5&ap=hiwifi",
    "/decide?link=ed2k://origin/f{i}&popularity=500&bandwidth_mbps=10"
    "&ap=miwifi",
    "/decide?link=ftp://host/f{i}&popularity=1&bandwidth_mbps=4",
]


def test_bench_ext_webapp_decisions(benchmark):
    app = OdrWebApp()

    def serve_batch():
        responses = []
        for index in range(200):
            path = QUERIES[index % len(QUERIES)].format(i=index)
            responses.append(app.handle(path))
        return responses

    responses = benchmark(serve_batch)
    assert len(responses) == 200
    payloads = [json.loads(body) for status, _type, body, _cookie, _headers
                in responses if status == 200]
    assert len(payloads) == 200
    actions = {payload["action"] for payload in payloads}
    # The workload mix exercises several distinct routes.
    assert {"user_device", "cloud+ap", "smart_ap"} <= actions

    # Throughput: even interpreted Python handles far more decisions
    # per second than the real service's ~1 request/s budget implies.
    decisions_per_second = 200 / benchmark.stats["mean"]
    print(f"\n~{decisions_per_second:,.0f} ODR decisions/second "
          f"(single process, in-memory)")
    assert decisions_per_second > 1000